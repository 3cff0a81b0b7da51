#include "common/jsonl_files.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace c4 {

namespace {

namespace fs = std::filesystem;

/** Each line with its terminator; only the last may lack one. */
std::vector<std::string_view>
splitLines(std::string_view text)
{
    std::vector<std::string_view> lines;
    while (!text.empty()) {
        const std::size_t nl = text.find('\n');
        const std::size_t len =
            nl == std::string_view::npos ? text.size() : nl + 1;
        lines.push_back(text.substr(0, len));
        text.remove_prefix(len);
    }
    return lines;
}

void
printLine(std::ostream &out, const char *mark, std::size_t number,
          std::string_view line)
{
    out << mark << number << "   " << line;
    if (!line.ends_with('\n'))
        out << "   <no newline at end of file>\n";
}

} // namespace

std::string
readFile(const std::string &path)
{
    if (!fs::exists(path))
        throw std::runtime_error("'" + path + "' does not exist");
    // An ifstream on a directory opens fine but reads zero bytes,
    // which would make `diff <dir> <dir>` report "identical: 0
    // lines" instead of failing.
    if (!fs::is_regular_file(path)) {
        throw std::runtime_error("'" + path +
                                 "' is not a regular file");
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
writeFile(const std::string &path, std::string_view text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (out) {
        out.write(text.data(),
                  static_cast<std::streamsize>(text.size()));
        out.flush();
    }
    if (!out)
        throw std::runtime_error("cannot write '" + path + "'");
}

void
writeFileAtomic(const std::string &path, std::string_view text)
{
    const std::string tmp = path + ".tmp";
    writeFile(tmp, text);
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        throw std::runtime_error("cannot rename '" + tmp + "' over '" +
                                 path + "'");
    }
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
collectJsonlFiles(const std::string &path)
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
            throw std::runtime_error("no *.jsonl files under '" +
                                     path + "'");
        }
    } else if (fs::is_regular_file(path, ec)) {
        files.push_back(path);
    } else {
        throw std::runtime_error("no file or directory at '" + path +
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
               std::ostream &out, int context)
{
    const std::string textA = readFile(pathA);
    const std::string textB = readFile(pathB);
    const std::vector<std::string_view> a = splitLines(textA);
    const std::vector<std::string_view> b = splitLines(textB);
    const std::size_t n = std::min(a.size(), b.size());
    std::size_t div = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (a[i] != b[i]) {
            div = i;
            break;
        }
    }
    if (div == n && a.size() == b.size()) {
        out << "identical: " << a.size() << " line(s)\n";
        return 0;
    }

    out << "files diverge at line " << div + 1 << "\n";
    const std::size_t from =
        div > static_cast<std::size_t>(context)
            ? div - static_cast<std::size_t>(context)
            : 0;
    for (std::size_t i = from; i < div; ++i)
        printLine(out, "  ", i + 1, a[i]);
    if (div < a.size())
        printLine(out, "< ", div + 1, a[div]);
    else
        out << "< " << div + 1 << "   <end of " << pathA << ">\n";
    if (div < b.size())
        printLine(out, "> ", div + 1, b[div]);
    else
        out << "> " << div + 1 << "   <end of " << pathB << ">\n";
    return 1;
}

} // namespace c4
