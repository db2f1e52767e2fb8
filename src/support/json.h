/**
 * @file
 * JSON string escaping shared by every hand-written JSON writer: wire
 * responses, metrics and trace exports, and the tools' reports.
 */

#ifndef TESSEL_SUPPORT_JSON_H
#define TESSEL_SUPPORT_JSON_H

#include <string>
#include <string_view>

namespace tessel {

/**
 * Escape @p s for the body of a JSON string. Quote and backslash get a
 * backslash, newline, tab and carriage return their short forms, and
 * every other byte below 0x20 the \u00XX form, so the result is a valid
 * JSON string body whatever control bytes the input holds. Other bytes
 * pass through unchanged.
 */
std::string jsonEscape(std::string_view s);

} // namespace tessel

#endif // TESSEL_SUPPORT_JSON_H
