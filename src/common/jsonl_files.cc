#include "common/jsonl_files.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace c4 {

namespace {

namespace fs = std::filesystem;

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        const std::size_t end =
            nl == std::string::npos ? text.size() : nl;
        lines.push_back(text.substr(start, end - start));
        if (nl == std::string::npos)
            break;
        start = nl + 1;
    }
    return lines;
}

} // namespace

std::string
readJsonlFile(const std::string &path, const JsonlNoun &noun)
{
    // An ifstream on a directory opens fine but reads zero bytes,
    // which would make `diff <dir> <dir>` report "identical: 0
    // lines" instead of failing.
    if (!fs::is_regular_file(path)) {
        throw std::runtime_error("'" + path + "' is not a " +
                                 noun.file + " file");
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
sanitizeFileComponent(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') ||
                        (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '.' ||
                        c == '_' || c == '-';
        if (!ok)
            c = '_';
    }
    // "." and ".." are path traversal, not names: a spec file can put
    // anything in its scenario name, and `--trace DIR` / `--metrics
    // DIR` must never write outside DIR.
    if (out.empty() || out == "." || out == "..")
        return std::string(out.empty() ? 1 : out.size(), '_');
    return out;
}

std::vector<std::string>
collectJsonlFiles(const std::string &path, const JsonlNoun &noun)
{
    std::vector<std::string> files;
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
        for (const auto &entry :
             fs::recursive_directory_iterator(path)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".jsonl") {
                files.push_back(entry.path().string());
            }
        }
        std::sort(files.begin(), files.end());
        if (files.empty()) {
            throw std::runtime_error(std::string("no *.jsonl ") +
                                     noun.file + " files under '" +
                                     path + "'");
        }
    } else if (fs::is_regular_file(path, ec)) {
        files.push_back(path);
    } else {
        throw std::runtime_error(std::string("no ") + noun.file +
                                 " file or directory at '" + path +
                                 "'");
    }
    return files;
}

std::string
jsonlFileTag(const std::string &path)
{
    std::string name = fs::path(path).filename().string();
    const std::string suffix = ".jsonl";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(),
                     suffix) == 0) {
        name.resize(name.size() - suffix.size());
    }
    return name;
}

std::string
formatSimSeconds(Time when)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9f",
                  static_cast<double>(when) / 1e9);
    return buf;
}

int
diffJsonlFiles(const std::string &pathA, const std::string &pathB,
               const JsonlNoun &noun, std::ostream &out, int context)
{
    const std::vector<std::string> a =
        splitLines(readJsonlFile(pathA, noun));
    const std::vector<std::string> b =
        splitLines(readJsonlFile(pathB, noun));
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t div = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) {
            div = i;
            break;
        }
    }
    if (div == n && a.size() == b.size()) {
        out << "identical: " << a.size() << " " << noun.line
            << " line(s)\n";
        return 0;
    }

    out << noun.file << "s diverge at line " << div + 1 << "\n";
    const std::size_t from =
        div > static_cast<std::size_t>(context)
            ? div - static_cast<std::size_t>(context)
            : 0;
    for (std::size_t i = from; i < div; ++i)
        out << "  " << i + 1 << "   " << a[i] << "\n";
    if (div < a.size())
        out << "< " << div + 1 << "   " << a[div] << "\n";
    else
        out << "< " << div + 1 << "   <end of " << pathA << ">\n";
    if (div < b.size())
        out << "> " << div + 1 << "   " << b[div] << "\n";
    else
        out << "> " << div + 1 << "   <end of " << pathB << ">\n";
    return 1;
}

} // namespace c4
