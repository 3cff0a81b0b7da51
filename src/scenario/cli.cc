#include "scenario/cli.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace c4::scenario {

void
splitCommaList(const std::string &list, std::vector<std::string> &out)
{
    std::size_t start = 0;
    while (start <= list.size()) {
        const std::size_t comma = list.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? list.size() : comma;
        if (end > start)
            out.push_back(list.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
}

bool
parseCliInt(const char *s, int &out)
{
    char *end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v <= 0 || v > 1'000'000)
        return false;
    out = static_cast<int>(v);
    return true;
}

bool
parseCliSeed(const char *s, std::uint64_t &out)
{
    // Hex with an explicit 0x prefix, otherwise decimal — never
    // octal, matching spec-file "seed" strings, so a seed copied
    // between the command line and a spec file means the same run.
    const bool hex = s[0] == '0' && (s[1] == 'x' || s[1] == 'X');
    const char *digits = hex ? s + 2 : s;
    if (*digits == '\0')
        return false;
    for (const char *p = digits; *p; ++p) {
        const auto c = static_cast<unsigned char>(*p);
        if (!(hex ? std::isxdigit(c) : std::isdigit(c)))
            return false;
    }
    errno = 0;
    out = std::strtoull(s, nullptr, hex ? 16 : 10);
    return errno == 0;
}

bool
looksLikeSpecPath(const char *arg)
{
    const std::size_t n = std::strlen(arg);
    return n > 5 && std::strcmp(arg + n - 5, ".json") == 0;
}

} // namespace c4::scenario
