/**
 * @file
 * Minimal JSON text helpers for the benchmark's output lines and files.
 */

#ifndef PERFBENCH_JSON_H
#define PERFBENCH_JSON_H

#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {

inline std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** A number with all its significant digits (null when not finite). */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace perfbench

#endif // PERFBENCH_JSON_H
