/**
 * @file
 * A small dependency-free JSON-subset parser and serializer.
 *
 * Campaign spec files (campaign_config.hh) are plain JSON documents;
 * this parser covers the subset they need — objects, arrays, strings,
 * numbers, booleans, null — and concentrates on error quality: every
 * parse or type error is a single-line ConfigError of the form
 * "file:line:col: message", so a misplaced comma in a million-cell
 * campaign spec points at the offending character, not at the whole
 * file.
 *
 * Deliberate subset restrictions (each rejected with a clear error):
 * no duplicate object keys, no comments, no trailing commas, and no
 * \u escapes for surrogate pairs (BMP code points are supported).
 */

#ifndef PDNSPOT_CONFIG_JSON_HH
#define PDNSPOT_CONFIG_JSON_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/names.hh"

namespace pdnspot
{

/** A parsed JSON value, annotated with its source position. */
class JsonValue
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    /** One object member; insertion order is preserved. */
    using Member = std::pair<std::string, JsonValue>;

    JsonValue() = default;

    Kind kind() const { return _kind; }

    bool isNull() const { return _kind == Kind::Null; }

    /** Typed accessors; fatal() with this value's position on a
     * kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /**
     * asNumber() restricted to integers in [min, max]; fatal() on a
     * fractional or out-of-range value. `what` names the field in
     * the error message.
     */
    long asInteger(const char *what, long min, long max) const;

    /** Array elements; fatal() unless this is an array. */
    const std::vector<JsonValue> &items() const;

    /** Object members in insertion order; fatal() unless object. */
    const std::vector<Member> &members() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /**
     * "file:line:col" of this value's first character — the prefix
     * every error about this value should carry.
     */
    std::string where() const;

    /** fatal() a single-line "file:line:col: message" error. */
    [[noreturn]] void fail(const std::string &message) const;

    /** Value factories (used by tests and spec writers). */
    static JsonValue makeNull();
    static JsonValue makeBool(bool v);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string v);
    static JsonValue makeArray(std::vector<JsonValue> items);
    static JsonValue makeObject(std::vector<Member> members);

  private:
    friend class JsonParser;

    Kind _kind = Kind::Null;
    bool _bool = false;
    double _number = 0.0;
    std::string _string;
    std::vector<JsonValue> _items;
    std::vector<Member> _members;

    /** Shared by every value of one document. */
    std::shared_ptr<const std::string> _source;
    int _line = 0;
    int _column = 0;
};

template <>
inline constexpr NameTable<JsonValue::Kind, 6> nameTable<JsonValue::Kind>{
    "JSON kind",
    {{{JsonValue::Kind::Null, "null"},
      {JsonValue::Kind::Bool, "boolean"},
      {JsonValue::Kind::Number, "number"},
      {JsonValue::Kind::String, "string"},
      {JsonValue::Kind::Array, "array"},
      {JsonValue::Kind::Object, "object"}}}};
static_assert(inEnumOrder(nameTable<JsonValue::Kind>));

/**
 * The entry of a named catalogue (a range of objects with a `name`
 * member) a string value names; fails at the value's position with
 * "unknown <what> ..." otherwise.
 */
template <typename Range>
const auto &
nameFromJson(const Range &range, const JsonValue &v, const char *what)
{
    const std::string &name = v.asString();
    if (const auto *row = findName(range, name))
        return *row;
    v.fail(unknownName(what, name, range));
}

/**
 * A string value spelled from E's name table (common/names.hh);
 * fails at the value's position with "unknown <what> ..." otherwise.
 */
template <NamedEnum E>
E
nameFromJson(const JsonValue &v)
{
    return nameFromJson(nameTable<E>, v, nameTable<E>.what).value;
}

/**
 * Parse one JSON document. `sourceName` labels error messages (a file
 * path, or something like "<string>" for inline text). fatal() with
 * "sourceName:line:col: message" on any syntax error, including
 * trailing garbage after the top-level value.
 */
JsonValue parseJson(const std::string &text,
                    const std::string &sourceName);

/**
 * parseJson over a spec file's contents; fatal() naming the "spec
 * file" if unreadable. Other readers use parseJson(readFileBytes(
 * path), path).
 */
JsonValue parseJsonFile(const std::string &path);

/** A whole file's bytes; fatal() naming `path` when unreadable. */
std::string readFileBytes(const std::string &path);

/**
 * Serialize a value as pretty-printed JSON (2-space indent, members
 * in stored order, numbers in shortest-round-trip form). The output
 * re-parses to an equivalent document.
 */
std::string writeJson(const JsonValue &value);

/**
 * Serialize a value as a single line (no newlines, ", "/": "
 * separators) — the result-archive index format, where one line is
 * one record and a torn trailing line must not corrupt its
 * predecessors. Same number/string grammar as writeJson; no trailing
 * newline.
 */
std::string writeJsonCompact(const JsonValue &value);

} // namespace pdnspot

#endif // PDNSPOT_CONFIG_JSON_HH
