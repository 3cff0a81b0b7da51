#include "common/json.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <system_error>

namespace c4 {

std::string
SpecError::locate(const std::string &message, int line, int column)
{
    if (line <= 0)
        return message;
    return "line " + std::to_string(line) + ", column " +
           std::to_string(column) + ": " + message;
}

const Json::Member *
Json::find(std::string_view key) const
{
    for (const Member &m : object) {
        if (m.key == key)
            return &m;
    }
    return nullptr;
}

void
Json::add(std::string key, Json value)
{
    Member m;
    m.key = std::move(key);
    m.value = std::move(value);
    object.push_back(std::move(m));
}

Json
Json::fromBool(bool v)
{
    Json j;
    j.kind = Json::Kind::Bool;
    j.boolean = v;
    return j;
}

Json
Json::fromInt(std::int64_t v)
{
    Json j;
    j.kind = Json::Kind::Int;
    j.integer = v;
    return j;
}

Json
Json::fromDouble(double v)
{
    Json j;
    j.kind = Json::Kind::Double;
    j.number = v;
    return j;
}

Json
Json::fromString(std::string v)
{
    Json j;
    j.kind = Json::Kind::String;
    j.string = std::move(v);
    return j;
}

Json
Json::emptyArray()
{
    Json j;
    j.kind = Json::Kind::Array;
    return j;
}

Json
Json::emptyObject()
{
    Json j;
    j.kind = Json::Kind::Object;
    return j;
}

const char *
Json::kindName(Kind kind)
{
    switch (kind) {
      case Kind::Null: return "null";
      case Kind::Bool: return "boolean";
      case Kind::Int: return "integer";
      case Kind::Double: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

namespace {

/** A decoded number token. */
struct NumberToken
{
    bool isInt = false;
    std::int64_t integer = 0;
    double number = 0.0;
    std::string_view raw;
};

/**
 * strtod over a NUL-terminated copy of @p raw; the caller reads errno.
 * Every realistic number fits the stack buffer, so only pathological
 * tokens allocate.
 */
double
strtodToken(std::string_view raw)
{
    char buf[64];
    if (raw.size() < sizeof(buf)) {
        std::memcpy(buf, raw.data(), raw.size());
        buf[raw.size()] = '\0';
        return std::strtod(buf, nullptr);
    }
    return std::strtod(std::string(raw).c_str(), nullptr);
}

/**
 * Tokens and whitespace over a JsonCursor. The DOM parser and the
 * record scanner both lex through this, so they agree on every token
 * and on every error's text and position.
 */
class Lexer
{
  public:
    explicit Lexer(JsonCursor &cur) : cur_(cur) {}

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throw SpecError(what, cur_.line, cur_.column);
    }

    bool atEnd() const { return cur_.pos >= cur_.text.size(); }

    /** Move forward to @p pos over bytes that hold no newline. */
    void
    moveTo(std::size_t pos)
    {
        cur_.column += static_cast<int>(pos - cur_.pos);
        cur_.pos = pos;
    }

    char
    peek() const
    {
        return atEnd() ? '\0' : cur_.text[cur_.pos];
    }

    char
    advance()
    {
        const char c = cur_.text[cur_.pos++];
        if (c == '\n') {
            ++cur_.line;
            cur_.column = 1;
        } else {
            ++cur_.column;
        }
        return c;
    }

    void
    skipWhitespace()
    {
        while (!atEnd()) {
            const char c = cur_.text[cur_.pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                return;
            advance();
        }
    }

    void
    expect(char c, const char *context)
    {
        if (atEnd()) {
            fail(std::string("unexpected end of document; expected "
                             "'") +
                 c + "' " + context);
        }
        if (peek() != c) {
            fail(std::string("expected '") + c + "' " + context +
                 ", found '" + peek() + "'");
        }
        advance();
    }

    /** Fail unless the document ends here (after whitespace). */
    void
    expectEnd()
    {
        skipWhitespace();
        if (!atEnd())
            fail("unexpected trailing content after the document");
    }

    bool
    literal(std::string_view word)
    {
        if (cur_.text.substr(cur_.pos, word.size()) != word)
            return false;
        for (std::size_t i = 0; i < word.size(); ++i)
            advance();
        return true;
    }

    /** End of the run of plain string bytes starting at @p pos: no
     * quote, backslash or control byte (so no newline either). */
    std::size_t
    plainRunEnd(std::size_t pos) const
    {
        while (pos < cur_.text.size()) {
            const auto u = static_cast<unsigned char>(cur_.text[pos]);
            if (u == '"' || u == '\\' || u < 0x20)
                break;
            ++pos;
        }
        return pos;
    }

    /**
     * Lex the string starting at the '"' under the cursor. A string
     * without escapes comes back as a view of the text; otherwise
     * @p scratch receives the decoded bytes and the view is of it.
     */
    std::string_view
    string(std::string &scratch)
    {
        advance(); // '"'
        const std::size_t start = cur_.pos;
        std::size_t run = plainRunEnd(start);
        if (run < cur_.text.size() && cur_.text[run] == '"') {
            moveTo(run + 1);
            return cur_.text.substr(start, run - start);
        }
        scratch.clear();
        for (;;) {
            scratch.append(cur_.text.data() + cur_.pos, run - cur_.pos);
            moveTo(run);

            if (atEnd())
                fail("unterminated string");
            const char c = advance();
            if (c == '"')
                return scratch;
            if (c != '\\')
                fail("raw control character inside a string");
            if (atEnd())
                fail("unterminated escape sequence");
            const char e = advance();
            switch (e) {
              case '"': scratch.push_back('"'); break;
              case '\\': scratch.push_back('\\'); break;
              case '/': scratch.push_back('/'); break;
              case 'b': scratch.push_back('\b'); break;
              case 'f': scratch.push_back('\f'); break;
              case 'n': scratch.push_back('\n'); break;
              case 'r': scratch.push_back('\r'); break;
              case 't': scratch.push_back('\t'); break;
              case 'u': {
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    if (atEnd())
                        fail("unterminated \\u escape");
                    const char h = advance();
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("invalid \\u escape digit");
                }
                // UTF-8 encode the code point (BMP only; surrogate
                // pairs are not needed for spec files).
                if (code < 0x80) {
                    scratch.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    scratch.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    scratch.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    scratch.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    scratch.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    scratch.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
              }
              default:
                fail(std::string("invalid escape '\\") + e + "'");
            }
            run = plainRunEnd(cur_.pos);
        }
    }

    /** Lex the number starting under the cursor. */
    NumberToken
    number()
    {
        // Index-based: a number holds no newline, so the cursor moves
        // once, to the end of the token or to the offending byte.
        const std::string_view t = cur_.text;
        const std::size_t start = cur_.pos;
        std::size_t i = start;
        auto digit = [&](std::size_t j) {
            return j < t.size() && t[j] >= '0' && t[j] <= '9';
        };
        auto failAt = [&](std::size_t j, const char *what) {
            moveTo(j);
            fail(what);
        };
        bool isDouble = false;
        if (i < t.size() && t[i] == '-')
            ++i;
        if (!digit(i))
            failAt(i, "malformed number");
        // JSON: a leading zero stands alone before the point/exponent.
        if (t[i] == '0') {
            ++i;
            if (digit(i))
                failAt(i, "malformed number: leading zero");
        }
        while (digit(i))
            ++i;
        if (i < t.size() && t[i] == '.') {
            isDouble = true;
            ++i;
            if (!digit(i))
                failAt(i, "malformed number: digit required after '.'");
            while (digit(i))
                ++i;
        }
        if (i < t.size() && (t[i] == 'e' || t[i] == 'E')) {
            isDouble = true;
            ++i;
            if (i < t.size() && (t[i] == '+' || t[i] == '-'))
                ++i;
            if (!digit(i))
                failAt(i, "malformed number: digit required in exponent");
            while (digit(i))
                ++i;
        }
        moveTo(i);
        NumberToken tok;
        tok.raw = cur_.text.substr(start, cur_.pos - start);
        if (!isDouble) {
            const char *last = tok.raw.data() + tok.raw.size();
            const auto [end, ec] =
                std::from_chars(tok.raw.data(), last, tok.integer);
            if (ec == std::errc() && end == last) {
                tok.isInt = true;
                return tok;
            }
            // Fall through: out of int64 range, keep as double.
        }
        errno = 0;
        tok.number = strtodToken(tok.raw);
        if (errno == ERANGE && !std::isfinite(tok.number))
            fail("number '" + std::string(tok.raw) +
                 "' is out of double range");
        return tok;
    }

  private:
    JsonCursor &cur_;
};

class Parser
{
  public:
    explicit Parser(JsonCursor &cur) : lex_(cur), cur_(cur) {}

    Json
    document()
    {
        lex_.skipWhitespace();
        Json v = value(0);
        lex_.expectEnd();
        return v;
    }

    Json
    value(int depth)
    {
        if (depth > 64)
            lex_.fail("document nests deeper than 64 levels");
        lex_.skipWhitespace();
        if (lex_.atEnd())
            lex_.fail("unexpected end of document; expected a value");
        Json v;
        v.line = cur_.line;
        v.column = cur_.column;
        const char c = lex_.peek();
        if (c == '{') {
            parseObject(v, depth);
        } else if (c == '[') {
            parseArray(v, depth);
        } else if (c == '"') {
            v.kind = Json::Kind::String;
            v.string = lex_.string(scratch_);
        } else if (c == '-' || (c >= '0' && c <= '9')) {
            const NumberToken tok = lex_.number();
            v.kind = tok.isInt ? Json::Kind::Int : Json::Kind::Double;
            v.integer = tok.integer;
            v.number = tok.number;
            v.raw = tok.raw;
        } else if (lex_.literal("true")) {
            v.kind = Json::Kind::Bool, v.boolean = true;
        } else if (lex_.literal("false")) {
            v.kind = Json::Kind::Bool, v.boolean = false;
        } else if (lex_.literal("null")) {
            v.kind = Json::Kind::Null;
        } else {
            lex_.fail(std::string("unexpected character '") + c + "'");
        }
        return v;
    }

  private:
    void
    parseObject(Json &v, int depth)
    {
        v.kind = Json::Kind::Object;
        lex_.advance(); // '{'
        lex_.skipWhitespace();
        if (lex_.peek() == '}') {
            lex_.advance();
            return;
        }
        for (;;) {
            lex_.skipWhitespace();
            Json::Member m;
            m.keyLine = cur_.line;
            m.keyColumn = cur_.column;
            if (lex_.peek() != '"')
                lex_.fail("expected a quoted object key");
            m.key = lex_.string(scratch_);
            if (v.find(m.key)) {
                throw SpecError("duplicate key \"" + m.key + "\"",
                                m.keyLine, m.keyColumn);
            }
            lex_.skipWhitespace();
            lex_.expect(':', "after object key");
            m.value = value(depth + 1);
            v.object.push_back(std::move(m));
            lex_.skipWhitespace();
            if (lex_.peek() == ',') {
                lex_.advance();
                continue;
            }
            lex_.expect('}', "to close the object");
            return;
        }
    }

    void
    parseArray(Json &v, int depth)
    {
        v.kind = Json::Kind::Array;
        lex_.advance(); // '['
        lex_.skipWhitespace();
        if (lex_.peek() == ']') {
            lex_.advance();
            return;
        }
        for (;;) {
            v.array.push_back(value(depth + 1));
            lex_.skipWhitespace();
            if (lex_.peek() == ',') {
                lex_.advance();
                continue;
            }
            lex_.expect(']', "to close the array");
            return;
        }
    }

    Lexer lex_;
    JsonCursor &cur_;
    std::string scratch_; ///< decoded text of an escaped string
};

void
writeValue(std::string &out, const Json &v, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent) * 2, ' ');
    const std::string inner(
        static_cast<std::size_t>(indent + 1) * 2, ' ');
    switch (v.kind) {
      case Json::Kind::Null:
        out += "null";
        break;
      case Json::Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case Json::Kind::Int:
        appendJsonInt(out, v.integer);
        break;
      case Json::Kind::Double:
        if (v.raw.empty())
            appendJsonDouble(out, v.number);
        else
            out += v.raw;
        break;
      case Json::Kind::String:
        appendJsonString(out, v.string);
        break;
      case Json::Kind::Array: {
        if (v.array.empty()) {
            out += "[]";
            break;
        }
        // Arrays of scalars stay on one line; nested structures get
        // one element per line.
        bool scalar = true;
        for (const Json &e : v.array) {
            if (e.kind == Json::Kind::Array ||
                e.kind == Json::Kind::Object) {
                scalar = false;
                break;
            }
        }
        out.push_back('[');
        bool first = true;
        for (const Json &e : v.array) {
            if (!first)
                out += scalar ? ", " : ",";
            if (!scalar) {
                out.push_back('\n');
                out += inner;
            }
            first = false;
            writeValue(out, e, indent + 1);
        }
        if (!scalar) {
            out.push_back('\n');
            out += pad;
        }
        out.push_back(']');
        break;
      }
      case Json::Kind::Object: {
        if (v.object.empty()) {
            out += "{}";
            break;
        }
        out.push_back('{');
        bool first = true;
        for (const Json::Member &m : v.object) {
            if (!first)
                out.push_back(',');
            first = false;
            out.push_back('\n');
            out += inner;
            appendJsonString(out, m.key);
            out += ": ";
            writeValue(out, m.value, indent + 1);
        }
        out.push_back('\n');
        out += pad;
        out.push_back('}');
        break;
      }
    }
}

/** One-line form: no indentation or newlines anywhere. */
void
writeValueCompact(std::string &out, const Json &v)
{
    switch (v.kind) {
      case Json::Kind::Null:
        out += "null";
        break;
      case Json::Kind::Bool:
        out += v.boolean ? "true" : "false";
        break;
      case Json::Kind::Int:
        appendJsonInt(out, v.integer);
        break;
      case Json::Kind::Double:
        if (v.raw.empty())
            appendJsonDouble(out, v.number);
        else
            out += v.raw;
        break;
      case Json::Kind::String:
        appendJsonString(out, v.string);
        break;
      case Json::Kind::Array: {
        out.push_back('[');
        bool first = true;
        for (const Json &e : v.array) {
            if (!first)
                out.push_back(',');
            first = false;
            writeValueCompact(out, e);
        }
        out.push_back(']');
        break;
      }
      case Json::Kind::Object: {
        out.push_back('{');
        bool first = true;
        for (const Json::Member &m : v.object) {
            if (!first)
                out.push_back(',');
            first = false;
            appendJsonString(out, m.key);
            out.push_back(':');
            writeValueCompact(out, m.value);
        }
        out.push_back('}');
        break;
      }
    }
}

} // namespace

std::string
formatJsonDouble(double v)
{
    std::string out;
    appendJsonDouble(out, v);
    return out;
}

void
appendJsonString(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    out.push_back('"');
    std::size_t plain = 0; // start of the pending run of plain bytes
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto u = static_cast<unsigned char>(s[i]);
        if (u != '"' && u != '\\' && u >= 0x20)
            continue;
        out.append(s.data() + plain, i - plain);
        plain = i + 1;
        if (u < 0x20) {
            const char esc[6] = {'\\', 'u', '0', '0', kHex[u >> 4],
                                 kHex[u & 0xF]};
            out.append(esc, sizeof(esc));
        } else {
            out.push_back('\\');
            out.push_back(static_cast<char>(u));
        }
    }
    out.append(s.data() + plain, s.size() - plain);
    out.push_back('"');
}

void
appendJsonInt(std::string &out, std::int64_t v)
{
    char buf[24];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, end);
}

void
appendJsonDouble(std::string &out, double v)
{
    // JSON has no encoding for these; surfacing the error beats
    // emitting a document that cannot re-parse.
    if (!std::isfinite(v))
        throw SpecError("non-finite number cannot be serialized", 0, 0);
    // Shortest of "%.15g", "%.16g", "%.17g" (to_chars with a
    // precision is printf's %g) that strtod reads back as the same
    // double, so write -> parse -> write is byte-stable.
    char buf[40];
    char *end = buf;
    for (int precision = 15; precision <= 17; ++precision) {
        end = std::to_chars(buf, buf + sizeof(buf) - 1, v,
                            std::chars_format::general, precision)
                  .ptr;
        *end = '\0';
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    out.append(buf, end);
    // A bare integer-looking token would re-parse as Kind::Int; keep
    // the double-ness explicit.
    if (std::string_view(buf, static_cast<std::size_t>(end - buf))
            .find_first_of(".eE") == std::string_view::npos)
        out += ".0";
}

Json
parseJson(const std::string &text)
{
    JsonCursor cur{text};
    return Parser(cur).document();
}

std::string
writeJson(const Json &value)
{
    std::string out;
    writeValue(out, value, 0);
    out.push_back('\n');
    return out;
}

std::string
writeJsonCompact(const Json &value)
{
    std::string out;
    writeValueCompact(out, value);
    return out;
}

void
JsonRecordScanner::reset(std::string_view text, const char *notAnObject)
{
    cur_ = JsonCursor{text};
    seen_.clear();
    seenDecoded_.clear();
    failed_ = false;
    state_ = State::Done;
    Lexer lex(cur_);
    lex.skipWhitespace();
    if (lex.peek() != '{') {
        // Parse whatever it is, so syntax errors keep precedence,
        // then reject it for not being a record.
        const Json v = Parser(cur_).value(0);
        lex.expectEnd();
        throw SpecError(notAnObject, v.line, v.column);
    }
    objectLine_ = cur_.line;
    objectColumn_ = cur_.column;
    lex.advance(); // '{'
    lex.skipWhitespace();
    if (lex.peek() == '}') {
        lex.advance();
        closeDocument();
        return;
    }
    state_ = State::Open;
}

bool
JsonRecordScanner::next()
{
    Lexer lex(cur_);
    if (state_ == State::Done)
        return false;
    if (state_ == State::AfterValue) {
        lex.skipWhitespace();
        if (lex.peek() != ',') {
            lex.expect('}', "to close the object");
            closeDocument();
            return false;
        }
        lex.advance();
    }
    lex.skipWhitespace();
    keyLine_ = cur_.line;
    keyColumn_ = cur_.column;
    if (lex.peek() != '"')
        lex.fail("expected a quoted object key");
    key_ = lex.string(scratch_);
    const bool decoded = key_.data() == scratch_.data();
    auto same = [&](std::string_view seen) {
        // Keys are short; the size and first byte settle most pairs.
        return seen.size() == key_.size() &&
               (key_.empty() || seen[0] == key_[0]) && seen == key_;
    };
    if (std::any_of(seen_.begin(), seen_.end(), same) ||
        std::any_of(seenDecoded_.begin(), seenDecoded_.end(), same)) {
        throw SpecError("duplicate key \"" + std::string(key_) + "\"",
                        keyLine_, keyColumn_);
    }
    if (decoded) {
        seenDecoded_.push_back(scratch_);
        key_ = seenDecoded_.back();
    } else {
        seen_.push_back(key_);
    }
    lex.skipWhitespace();
    lex.expect(':', "after object key");
    readValue();
    state_ = State::AfterValue;
    return true;
}

void
JsonRecordScanner::readValue()
{
    Lexer lex(cur_);
    lex.skipWhitespace();
    if (lex.atEnd())
        lex.fail("unexpected end of document; expected a value");
    valueLine_ = cur_.line;
    valueColumn_ = cur_.column;
    const char c = lex.peek();
    if (c == '"') {
        kind_ = Json::Kind::String;
        string_ = lex.string(scratch_);
    } else if (c == '-' || (c >= '0' && c <= '9')) {
        const NumberToken tok = lex.number();
        kind_ = tok.isInt ? Json::Kind::Int : Json::Kind::Double;
        integer_ = tok.integer;
        number_ = tok.number;
    } else if (c == '{' || c == '[') {
        // Records are flat, so a nested value is only ever bound to
        // fail; the DOM parser checks its syntax.
        kind_ = Parser(cur_).value(1).kind;
    } else if (lex.literal("true") || lex.literal("false")) {
        kind_ = Json::Kind::Bool;
    } else if (lex.literal("null")) {
        kind_ = Json::Kind::Null;
    } else {
        lex.fail(std::string("unexpected character '") + c + "'");
    }
}

void
JsonRecordScanner::closeDocument()
{
    Lexer(cur_).expectEnd();
    state_ = State::Done;
}

std::int64_t
JsonRecordScanner::integer(const char *key)
{
    if (kind_ != Json::Kind::Int) {
        failValue(std::string("\"") + key + "\" must be an integer");
        return 0;
    }
    return integer_;
}

std::int32_t
JsonRecordScanner::int32(const char *key)
{
    const std::int64_t v = integer(key);
    if (v < std::numeric_limits<std::int32_t>::min() ||
        v > std::numeric_limits<std::int32_t>::max()) {
        failValue(std::string("\"") + key +
                  "\" is outside the 32-bit integer range");
        return 0;
    }
    return static_cast<std::int32_t>(v);
}

double
JsonRecordScanner::number(const char *key)
{
    if (kind_ == Json::Kind::Int)
        return static_cast<double>(integer_);
    if (kind_ == Json::Kind::Double)
        return number_;
    failValue(std::string("\"") + key + "\" must be a number");
    return 0.0;
}

std::string_view
JsonRecordScanner::string(const char *key)
{
    if (kind_ != Json::Kind::String) {
        failValue(std::string("\"") + key + "\" must be a string");
        return {};
    }
    return string_;
}

void
JsonRecordScanner::fail(std::string what, int line, int column)
{
    if (failed_)
        return;
    failed_ = true;
    error_ = std::move(what);
    errorLine_ = line;
    errorColumn_ = column;
}

void
JsonRecordScanner::failValue(std::string what)
{
    fail(std::move(what), valueLine_, valueColumn_);
}

void
JsonRecordScanner::failKey(std::string what)
{
    fail(std::move(what), keyLine_, keyColumn_);
}

void
JsonRecordScanner::failRecord(std::string what)
{
    fail(std::move(what), objectLine_, objectColumn_);
}

void
JsonRecordScanner::finish() const
{
    if (failed_)
        throw SpecError(error_, errorLine_, errorColumn_);
}

// --- JsonBinder -------------------------------------------------------

namespace {

int
editDistance(std::string_view a, std::string_view b)
{
    std::vector<int> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = static_cast<int>(j);
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = static_cast<int>(i);
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const int sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

/** The quoted key an error names; array entries add " entry". */
std::string
valueName(const char *key, bool entry)
{
    return std::string("\"") + key + (entry ? "\" entry" : "\"");
}

} // namespace

JsonBinder::JsonBinder(const Json &obj, std::string context)
    : obj_(obj), context_(std::move(context))
{
    if (obj_.kind != Json::Kind::Object) {
        throw SpecError(context_ + " must be an object, not " +
                            Json::kindName(obj_.kind),
                        obj_.line, obj_.column);
    }
}

const Json *
JsonBinder::member(const char *key)
{
    known_.push_back(key);
    const Json::Member *m = obj_.find(key);
    return m ? &m->value : nullptr;
}

const Json &
JsonBinder::need(const char *key)
{
    const Json *v = member(key);
    if (!v)
        fail(obj_, std::string("missing key \"") + key + "\"");
    return *v;
}

void
JsonBinder::read(const Json &v, const char *key, bool &out,
                 bool entry) const
{
    expectKind(v, Json::Kind::Bool, key, entry);
    out = v.boolean;
}

void
JsonBinder::read(const Json &v, const char *key, int &out,
                 bool entry) const
{
    expectKind(v, Json::Kind::Int, key, entry);
    if (v.integer < std::numeric_limits<int>::min() ||
        v.integer > std::numeric_limits<int>::max()) {
        fail(v, valueName(key, entry) + " is out of integer range");
    }
    out = static_cast<int>(v.integer);
}

void
JsonBinder::read(const Json &v, const char *key, std::int64_t &out,
                 bool entry) const
{
    expectKind(v, Json::Kind::Int, key, entry);
    out = v.integer;
}

void
JsonBinder::read(const Json &v, const char *key, double &out,
                 bool entry) const
{
    if (v.kind == Json::Kind::Int)
        out = static_cast<double>(v.integer);
    else if (v.kind == Json::Kind::Double)
        out = v.number;
    else
        expectKind(v, Json::Kind::Double, key, entry);
}

void
JsonBinder::read(const Json &v, const char *key, std::string &out,
                 bool entry) const
{
    expectKind(v, Json::Kind::String, key, entry);
    out = v.string;
}

void
JsonBinder::expect(const Json &v, Json::Kind kind, const char *key) const
{
    expectKind(v, kind, key, false);
}

void
JsonBinder::expectKind(const Json &v, Json::Kind kind, const char *key,
                       bool entry) const
{
    if (v.kind != kind) {
        fail(v, valueName(key, entry) + " must be a " +
                    Json::kindName(kind) + ", not " +
                    Json::kindName(v.kind));
    }
}

void
JsonBinder::finish() const
{
    for (const Json::Member &m : obj_.object) {
        if (std::find(known_.begin(), known_.end(), m.key) !=
            known_.end()) {
            continue;
        }
        std::string message =
            "unknown key \"" + m.key + "\" in " + context_;
        int best = 3; // suggest only within edit distance 2
        const char *suggestion = nullptr;
        for (const char *k : known_) {
            const int d = editDistance(m.key, k);
            if (d < best) {
                best = d;
                suggestion = k;
            }
        }
        if (suggestion)
            message += std::string(", did you mean \"") + suggestion +
                       "\"?";
        throw SpecError(message, m.keyLine, m.keyColumn);
    }
}

void
JsonBinder::fail(const Json &at, const std::string &message) const
{
    throw SpecError(message + " in " + context_, at.line, at.column);
}

} // namespace c4
