/**
 * @file
 * A dependency-free JSON-subset reader/writer, shared by every document
 * format in the repo: spec files (specio), the sweep manifest and the
 * forensics bundle (sweep), incident labels and verdicts (replay), and
 * the event-trace and metric-snapshot codecs (trace, obs).
 *
 * The dialect is strict JSON (objects, arrays, strings, numbers,
 * true/false/null) minus nothing, plus nothing — no comments, no
 * trailing commas. What distinguishes this from a generic JSON library
 * is what those subsystems need from it:
 *
 *  - every value and object key remembers its line/column, so binder
 *    errors point at the offending spot in the file;
 *  - duplicate keys inside one object are a parse error (a silently
 *    ignored "oversubscription" written twice is a debugging trap);
 *  - integers are kept exact (std::int64_t) and distinct from doubles,
 *    and the writer formats doubles with the shortest representation
 *    that round-trips, so write -> parse -> write is byte-stable.
 *
 * Whole documents go through the DOM: writers build it with the
 * Json::fromInt()/... constructors and Json::add(), and readers bind
 * it through JsonBinder, the one strict object binder (typed,
 * range-checked gets, located errors, and a finish() that rejects
 * unknown keys with a nearest-key suggestion). Spec files, sweep
 * manifests, forensics bundles and incident labels all read through
 * it.
 *
 * Flat JSONL records (event traces, metric snapshots) skip the DOM:
 * JsonRecordWriter appends one record straight into an output buffer,
 * and JsonRecordScanner binds one record member by member. Both share
 * the DOM's token formatting and lexing, so a record means the same
 * bytes and the same errors on either path.
 */

#ifndef C4_COMMON_JSON_H
#define C4_COMMON_JSON_H

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace c4 {

/** A parse/bind failure, located in the source document. */
class SpecError : public std::runtime_error
{
  public:
    SpecError(std::string message, int line, int column)
        : std::runtime_error(locate(message, line, column)),
          line_(line), column_(column)
    {
    }

    int line() const { return line_; }
    int column() const { return column_; }

  private:
    static std::string locate(const std::string &message, int line,
                              int column);

    int line_;
    int column_;
};

/** One parsed JSON value, with source location. */
struct Json
{
    enum class Kind { Null, Bool, Int, Double, String, Array, Object };

    /** Object member; insertion order is preserved. Defined after the
     * class (it holds a Json by value). */
    struct Member;

    Kind kind = Kind::Null;
    int line = 0;
    int column = 0;

    bool boolean = false;
    std::int64_t integer = 0;
    double number = 0.0;
    /** Source token for numbers (writer emits it verbatim when set),
     * so exact-decimal encodings survive the double conversion. */
    std::string raw;
    std::string string;
    std::vector<Json> array;
    std::vector<Member> object;

    /** The object member named @p key, or nullptr. */
    const Member *find(std::string_view key) const;

    /** Append the object member @p key (writers add in key order). */
    void add(std::string key, Json value);

    /** @name Value constructors, for documents built to be written. @{ */
    static Json fromBool(bool v);
    static Json fromInt(std::int64_t v);
    static Json fromDouble(double v);
    static Json fromString(std::string v);
    static Json emptyArray();
    static Json emptyObject();
    /** @} */

    /** Human-readable kind name ("object", "string", ...). */
    static const char *kindName(Kind kind);
};

struct Json::Member
{
    std::string key;
    int keyLine = 0;
    int keyColumn = 0;
    Json value;
};

/**
 * Parse one JSON document (trailing garbage is an error).
 * @throws SpecError with 1-based line/column on malformed input.
 */
Json parseJson(const std::string &text);

/**
 * Serialize canonically: 2-space indent, members in insertion order,
 * doubles in shortest round-trip form. The same value always produces
 * the same bytes.
 */
std::string writeJson(const Json &value);

/**
 * Serialize on one line with no whitespace (JSONL records: one event
 * per line). Same canonical number/string formatting as writeJson.
 */
std::string writeJsonCompact(const Json &value);

/** Canonical number formatting (shared with the spec writer). */
std::string formatJsonDouble(double v);

/** Append @p s quoted and escaped, as every JSON writer here does. */
void appendJsonString(std::string &out, std::string_view s);

/** Append @p v in decimal. */
void appendJsonInt(std::string &out, std::int64_t v);

/** Append formatJsonDouble(@p v) without a temporary string. */
void appendJsonDouble(std::string &out, double v);

/**
 * Typed, strict access to one JSON object. Every get()/need() marks
 * its key as known; finish() rejects whatever keys remain, suggesting
 * the nearest known one. Errors are SpecErrors located at the
 * offending value and end with " in <context>".
 *
 * Integer gets are range-checked: a value that does not fit the
 * target type is an error, never a silent narrowing. Keys are kept as
 * pointers, so pass string literals; the binder also keeps a
 * reference to @p obj, which must outlive it.
 */
class JsonBinder
{
  public:
    /** @throws SpecError unless @p obj is an object. */
    JsonBinder(const Json &obj, std::string context);

    JsonBinder(const JsonBinder &) = delete;
    JsonBinder &operator=(const JsonBinder &) = delete;

    /** How errors name the object ("variants[0].topology"). */
    const std::string &context() const { return context_; }

    /** The member named @p key, or nullptr; marks the key known. */
    const Json *member(const char *key);

    /** member(), but a missing key is an error. */
    const Json &need(const char *key);

    /** Bind member @p key into @p out, if present (bool, int,
     * int64, double, string, or vectors of those). */
    template <typename T>
    void
    get(const char *key, T &out)
    {
        if (const Json *v = member(key))
            read(*v, key, out);
    }

    /** get(), but a missing key is an error. */
    template <typename T>
    void
    need(const char *key, T &out)
    {
        read(need(key), key, out);
    }

    /**
     * Bind each entry of the array @p v (the value of @p key) through
     * @p bind(JsonBinder &entry), naming entry i "<path>[i]"; each
     * entry's finish() runs after @p bind returns.
     */
    template <typename Bind>
    void
    eachObject(const Json &v, const char *key, const std::string &path,
               Bind &&bind) const
    {
        expect(v, Json::Kind::Array, key);
        for (std::size_t i = 0; i < v.array.size(); ++i) {
            JsonBinder entry(v.array[i],
                             path + "[" + std::to_string(i) + "]");
            bind(entry);
            entry.finish();
        }
    }

    /** @throws SpecError unless @p v is a @p kind. */
    void expect(const Json &v, Json::Kind kind, const char *key) const;

    /** Reject leftover keys, suggesting the nearest known one. */
    void finish() const;

    /** @throws SpecError "<message> in <context>" located at @p at. */
    [[noreturn]] void fail(const Json &at,
                           const std::string &message) const;

  private:
    /** @p entry: @p v is one entry of the array named @p key. */
    void read(const Json &v, const char *key, bool &out,
              bool entry = false) const;
    void read(const Json &v, const char *key, int &out,
              bool entry = false) const;
    void read(const Json &v, const char *key, std::int64_t &out,
              bool entry = false) const;
    void read(const Json &v, const char *key, double &out,
              bool entry = false) const;
    void read(const Json &v, const char *key, std::string &out,
              bool entry = false) const;

    template <typename T>
    void
    read(const Json &v, const char *key, std::vector<T> &out,
         bool entry = false) const
    {
        expectKind(v, Json::Kind::Array, key, entry);
        out.clear();
        out.reserve(v.array.size());
        for (const Json &e : v.array)
            read(e, key, out.emplace_back(), true);
    }

    void expectKind(const Json &v, Json::Kind kind, const char *key,
                    bool entry) const;

    const Json &obj_;
    std::string context_;
    std::vector<const char *> known_;
};

/**
 * Appends one compact JSON object, member by member, to a caller's
 * buffer: the same bytes writeJsonCompact() makes from the equivalent
 * DOM object, with no DOM and no temporary strings. Keys are written
 * as given, so callers pass plain identifiers.
 */
class JsonRecordWriter
{
  public:
    explicit JsonRecordWriter(std::string &out) : out_(out)
    {
        out_.push_back('{');
    }

    void
    integer(std::string_view key, std::int64_t v)
    {
        member(key);
        appendJsonInt(out_, v);
    }

    void
    number(std::string_view key, double v)
    {
        member(key);
        appendJsonDouble(out_, v);
    }

    void
    string(std::string_view key, std::string_view v)
    {
        member(key);
        appendJsonString(out_, v);
    }

    /** Close the object (no newline). */
    void close() { out_.push_back('}'); }

  private:
    void
    member(std::string_view key)
    {
        if (!first_)
            out_.push_back(',');
        first_ = false;
        out_.push_back('"');
        out_ += key;
        out_ += "\":";
    }

    std::string &out_;
    bool first_ = true;
};

/**
 * Hand each non-empty line of a JSONL document to @p bind, as a view
 * of @p text. A SpecError from @p bind gains a "record on line N: "
 * prefix. A final line without its newline throws as a truncated
 * write even when it would parse: every JSONL writer here
 * newline-terminates, so a mid-line end of file may have dropped
 * trailing fields of the record.
 */
template <typename Bind>
void
forEachJsonlRecord(std::string_view text, Bind &&bind)
{
    std::size_t start = 0;
    int lineNo = 0;
    while (start < text.size()) {
        const std::size_t nl = text.find('\n', start);
        ++lineNo;
        if (nl == std::string_view::npos) {
            throw SpecError("record on line " + std::to_string(lineNo) +
                                ": truncated record (missing final "
                                "newline; incomplete write?)",
                            0, 0);
        }
        const std::string_view line = text.substr(start, nl - start);
        if (!line.empty()) {
            try {
                bind(line);
            } catch (const SpecError &e) {
                throw SpecError("record on line " +
                                    std::to_string(lineNo) + ": " +
                                    e.what(),
                                0, 0);
            }
        }
        start = nl + 1;
    }
}

/** A read position in a JSON text, counted as the errors report it. */
struct JsonCursor
{
    std::string_view text;
    std::size_t pos = 0;
    int line = 1;
    int column = 1;
};

/**
 * Single-pass binder input for one flat JSON object record (one JSONL
 * line): yields the members in order, each with its decoded value,
 * without building a DOM or copying the line.
 *
 * It accepts and rejects exactly what parseJson() followed by a
 * member-by-member binder would: strings and numbers go through the
 * DOM parser's own lexer, nested values through the DOM parser
 * itself, duplicate keys and malformed syntax throw at once, and
 * binding errors are deferred until the record has parsed, so a
 * syntax error later in the line still wins. Only the first binding
 * error is kept. Usage:
 *
 *     scanner.reset(line, "record must be a JSON object");
 *     while (scanner.next()) {
 *         if (scanner.key() == "t")
 *             when = scanner.integer("t");
 *         else
 *             scanner.failKey("unknown key ...");
 *     }
 *     scanner.finish(); // throws the first binding error
 *
 * Keys and strings without escapes are views of the line; escaped
 * ones are decoded into buffers. One scanner is meant to be reset per
 * line, so those buffers stop allocating once they have grown.
 */
class JsonRecordScanner
{
  public:
    /**
     * Start on @p text, which must outlive the scan. A record that
     * parses but is not an object throws @p notAnObject at its
     * position.
     * @throws SpecError on malformed input.
     */
    void reset(std::string_view text, const char *notAnObject);

    /**
     * Advance to the next member.
     * @return false once the object and the document have closed.
     * @throws SpecError on malformed input or a duplicate key.
     */
    bool next();

    /** The current member's decoded key. */
    std::string_view key() const { return key_; }

    /** The current value's kind (Array/Object values are skipped). */
    Json::Kind kind() const { return kind_; }

    /** The decoded current String value; valid until next(). */
    std::string_view stringValue() const { return string_; }

    /** The current Int value, else a deferred error and 0. */
    std::int64_t integer(const char *key);

    /** integer(), also rejecting values outside int32. */
    std::int32_t int32(const char *key);

    /** The current Int or Double value as a double, else 0. */
    double number(const char *key);

    /** stringValue() when the value is a String, else "". */
    std::string_view string(const char *key);

    /** Defer a binding error located at the current value. */
    void failValue(std::string what);

    /** Defer a binding error located at the current key. */
    void failKey(std::string what);

    /** Defer a binding error located at the record's opening brace. */
    void failRecord(std::string what);

    /** @throws SpecError holding the first deferred binding error. */
    void finish() const;

  private:
    void fail(std::string what, int line, int column);
    void readValue();
    void closeDocument();

    enum class State { Open, AfterValue, Done };

    JsonCursor cur_;
    State state_ = State::Done;
    int objectLine_ = 0, objectColumn_ = 0;
    int keyLine_ = 0, keyColumn_ = 0;
    int valueLine_ = 0, valueColumn_ = 0;
    /** Keys seen in this record: views of the text, and the decoded
     * copies of keys written with escapes. */
    std::vector<std::string_view> seen_;
    std::vector<std::string> seenDecoded_;
    std::string_view key_;
    Json::Kind kind_ = Json::Kind::Null;
    std::int64_t integer_ = 0;
    double number_ = 0.0;
    std::string_view string_;
    std::string scratch_; ///< decoded text of an escaped string
    bool failed_ = false;
    std::string error_;
    int errorLine_ = 0, errorColumn_ = 0;
};

} // namespace c4

#endif // C4_COMMON_JSON_H
