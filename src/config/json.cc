#include "config/json.hh"

#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <system_error>

#include "common/csv.hh"
#include "common/logging.hh"

namespace pdnspot
{

std::string
JsonValue::where() const
{
    const char *source = _source ? _source->c_str() : "<json>";
    return strprintf("%s:%d:%d", source, _line, _column);
}

void
JsonValue::fail(const std::string &message) const
{
    fatal(where() + ": " + message);
}

namespace
{

[[noreturn]] void
wrongKind(const JsonValue &v, JsonValue::Kind wanted)
{
    v.fail(strprintf("expected %s, got %s", nameOf(wanted),
                     nameOf(v.kind())));
}

} // namespace

bool
JsonValue::asBool() const
{
    if (_kind != Kind::Bool)
        wrongKind(*this, Kind::Bool);
    return _bool;
}

double
JsonValue::asNumber() const
{
    if (_kind != Kind::Number)
        wrongKind(*this, Kind::Number);
    return _number;
}

const std::string &
JsonValue::asString() const
{
    if (_kind != Kind::String)
        wrongKind(*this, Kind::String);
    return _string;
}

long
JsonValue::asInteger(const char *what, long min, long max) const
{
    double v = asNumber();
    double integral;
    if (std::modf(v, &integral) != 0.0)
        fail(strprintf("%s must be an integer, got %g", what, v));
    if (integral < static_cast<double>(min) ||
        integral > static_cast<double>(max)) {
        fail(strprintf("%s must be in [%ld, %ld], got %g", what, min,
                       max, v));
    }
    return static_cast<long>(integral);
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (_kind != Kind::Array)
        wrongKind(*this, Kind::Array);
    return _items;
}

const std::vector<JsonValue::Member> &
JsonValue::members() const
{
    if (_kind != Kind::Object)
        wrongKind(*this, Kind::Object);
    return _members;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (_kind != Kind::Object)
        return nullptr;
    for (const Member &m : _members) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool v)
{
    JsonValue out;
    out._kind = Kind::Bool;
    out._bool = v;
    return out;
}

JsonValue
JsonValue::makeNumber(double v)
{
    JsonValue out;
    out._kind = Kind::Number;
    out._number = v;
    return out;
}

JsonValue
JsonValue::makeString(std::string v)
{
    JsonValue out;
    out._kind = Kind::String;
    out._string = std::move(v);
    return out;
}

JsonValue
JsonValue::makeArray(std::vector<JsonValue> items)
{
    JsonValue out;
    out._kind = Kind::Array;
    out._items = std::move(items);
    return out;
}

JsonValue
JsonValue::makeObject(std::vector<Member> members)
{
    JsonValue out;
    out._kind = Kind::Object;
    out._members = std::move(members);
    return out;
}

/** Recursive-descent parser tracking line/column as it scans. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string sourceName)
        : _text(text),
          _source(std::make_shared<const std::string>(
              std::move(sourceName)))
    {}

    JsonValue
    parseDocument()
    {
        skipWhitespace();
        JsonValue root = parseValue(0);
        skipWhitespace();
        if (_pos != _text.size())
            fail("trailing characters after the top-level value");
        return root;
    }

  private:
    // Nesting deeper than this is a runaway input, not a campaign
    // spec; bail before the recursion can exhaust the stack.
    static constexpr int maxDepth = 64;

    [[noreturn]] void
    fail(const std::string &message) const
    {
        fatal(strprintf("%s:%d:%d: %s", _source->c_str(), _line,
                        _column, message.c_str()));
    }

    bool atEnd() const { return _pos == _text.size(); }
    char peek() const { return _text[_pos]; }

    char
    advance()
    {
        char c = _text[_pos++];
        if (c == '\n') {
            ++_line;
            _column = 1;
        } else {
            ++_column;
        }
        return c;
    }

    void
    skipWhitespace()
    {
        while (!atEnd()) {
            char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                return;
            advance();
        }
    }

    void
    expect(char wanted, const char *context)
    {
        if (atEnd())
            fail(strprintf("unexpected end of input, expected '%c' "
                           "%s",
                           wanted, context));
        if (peek() != wanted)
            fail(strprintf("expected '%c' %s, got '%c'", wanted,
                           context, peek()));
        advance();
    }

    /** Stamp a value with the document source and a start position. */
    JsonValue
    stamp(JsonValue v, int line, int column) const
    {
        v._source = _source;
        v._line = line;
        v._column = column;
        return v;
    }

    JsonValue
    parseValue(int depth)
    {
        if (depth > maxDepth)
            fail(strprintf("nesting deeper than %d levels",
                           maxDepth));
        if (atEnd())
            fail("unexpected end of input, expected a value");

        int line = _line, column = _column;
        char c = peek();
        JsonValue v;
        if (c == '{')
            v = parseObject(depth);
        else if (c == '[')
            v = parseArray(depth);
        else if (c == '"')
            v = JsonValue::makeString(parseString());
        else if (c == 't' || c == 'f' || c == 'n')
            v = parseKeyword();
        else if (c == '-' || (c >= '0' && c <= '9'))
            v = JsonValue::makeNumber(parseNumber());
        else
            fail(strprintf("unexpected character '%c'", c));
        return stamp(std::move(v), line, column);
    }

    JsonValue
    parseObject(int depth)
    {
        advance(); // '{'
        std::vector<JsonValue::Member> members;
        skipWhitespace();
        if (!atEnd() && peek() == '}') {
            advance();
            return JsonValue::makeObject(std::move(members));
        }
        for (;;) {
            skipWhitespace();
            if (atEnd())
                fail("unexpected end of input inside an object");
            if (peek() != '"')
                fail("expected a string object key");
            int keyLine = _line, keyColumn = _column;
            std::string key = parseString();
            for (const JsonValue::Member &m : members) {
                if (m.first == key) {
                    fatal(strprintf("%s:%d:%d: duplicate object key "
                                    "\"%s\"",
                                    _source->c_str(), keyLine,
                                    keyColumn, key.c_str()));
                }
            }
            skipWhitespace();
            expect(':', "after an object key");
            skipWhitespace();
            members.emplace_back(std::move(key),
                                 parseValue(depth + 1));
            skipWhitespace();
            if (atEnd())
                fail("unexpected end of input inside an object");
            if (peek() == ',') {
                advance();
                continue;
            }
            expect('}', "to close an object");
            return JsonValue::makeObject(std::move(members));
        }
    }

    JsonValue
    parseArray(int depth)
    {
        advance(); // '['
        std::vector<JsonValue> items;
        skipWhitespace();
        if (!atEnd() && peek() == ']') {
            advance();
            return JsonValue::makeArray(std::move(items));
        }
        for (;;) {
            skipWhitespace();
            items.push_back(parseValue(depth + 1));
            skipWhitespace();
            if (atEnd())
                fail("unexpected end of input inside an array");
            if (peek() == ',') {
                advance();
                continue;
            }
            expect(']', "to close an array");
            return JsonValue::makeArray(std::move(items));
        }
    }

    std::string
    parseString()
    {
        advance(); // opening '"'
        std::string out;
        for (;;) {
            if (atEnd())
                fail("unterminated string");
            char c = advance();
            if (c == '"')
                return out;
            if (c == '\n')
                fail("raw newline inside a string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (atEnd())
                fail("unterminated escape sequence");
            char e = advance();
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
                break;
              case 'u':
                appendUnicodeEscape(out);
                break;
              default:
                fail(strprintf("unknown escape sequence '\\%c'", e));
            }
        }
    }

    void
    appendUnicodeEscape(std::string &out)
    {
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            if (atEnd())
                fail("unterminated \\u escape");
            char c = advance();
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail(strprintf("bad hex digit '%c' in \\u escape",
                               c));
        }
        if (code >= 0xd800 && code <= 0xdfff)
            fail("\\u surrogate pairs are not supported");
        // UTF-8 encode the BMP code point.
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
        } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
        }
    }

    bool
    consumeWord(const char *word)
    {
        size_t len = std::char_traits<char>::length(word);
        if (_text.compare(_pos, len, word) != 0)
            return false;
        for (size_t i = 0; i < len; ++i)
            advance();
        return true;
    }

    JsonValue
    parseKeyword()
    {
        if (consumeWord("true"))
            return JsonValue::makeBool(true);
        if (consumeWord("false"))
            return JsonValue::makeBool(false);
        if (consumeWord("null"))
            return JsonValue::makeNull();
        fail("unexpected keyword (expected true, false or null)");
    }

    double
    parseNumber()
    {
        size_t start = _pos;
        if (!atEnd() && peek() == '-')
            advance();
        auto digits = [&] {
            size_t before = _pos;
            while (!atEnd() && peek() >= '0' && peek() <= '9')
                advance();
            if (_pos == before)
                fail("malformed number");
        };
        digits();
        // JSON forbids leading zeros ("01"); keep that rule so specs
        // stay portable to stricter parsers.
        size_t intStart = _text[start] == '-' ? start + 1 : start;
        if (_text[intStart] == '0' && _pos > intStart + 1)
            fail("numbers may not have leading zeros");
        if (!atEnd() && peek() == '.') {
            advance();
            digits();
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            advance();
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                advance();
            digits();
        }
        double value = 0.0;
        auto [ptr, ec] = std::from_chars(_text.data() + start,
                                         _text.data() + _pos, value);
        if (ec != std::errc() || ptr != _text.data() + _pos)
            fail("malformed number");
        return value;
    }

    const std::string &_text;
    std::shared_ptr<const std::string> _source;
    size_t _pos = 0;
    int _line = 1;
    int _column = 1;
};

JsonValue
parseJson(const std::string &text, const std::string &sourceName)
{
    return JsonParser(text, sourceName).parseDocument();
}

JsonValue
parseJsonFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal(strprintf("cannot open spec file \"%s\"",
                        path.c_str()));
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        fatal(strprintf("error reading spec file \"%s\"",
                        path.c_str()));
    return parseJson(text.str(), path);
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal(strprintf("cannot read \"%s\"", path.c_str()));
    std::ostringstream out;
    out << in.rdbuf();
    return std::move(out).str();
}

namespace
{

void
appendJsonString(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x",
                                 static_cast<unsigned>(
                                     static_cast<unsigned char>(c)));
            else
                out += c;
        }
    }
    out += '"';
}

/**
 * Serialize `v` at nesting `depth`; a negative depth writes the
 * single-line form (", " between elements, no newlines).
 */
void
appendJson(std::string &out, const JsonValue &v, int depth)
{
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        out += "null";
        return;
      case JsonValue::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        return;
      case JsonValue::Kind::Number:
        out += csvExactDouble(v.asNumber());
        return;
      case JsonValue::Kind::String:
        appendJsonString(out, v.asString());
        return;
      case JsonValue::Kind::Array:
      case JsonValue::Kind::Object:
        break;
    }
    bool object = v.kind() == JsonValue::Kind::Object;
    bool pretty = depth >= 0;
    int inner = pretty ? depth + 1 : depth;
    size_t n = object ? v.members().size() : v.items().size();
    out += object ? '{' : '[';
    for (size_t i = 0; i < n; ++i) {
        if (i > 0)
            out += pretty ? "," : ", ";
        if (pretty) {
            out += '\n';
            out.append(static_cast<size_t>(inner) * 2, ' ');
        }
        if (object) {
            appendJsonString(out, v.members()[i].first);
            out += ": ";
            appendJson(out, v.members()[i].second, inner);
        } else {
            appendJson(out, v.items()[i], inner);
        }
    }
    if (pretty && n > 0) {
        out += '\n';
        out.append(static_cast<size_t>(depth) * 2, ' ');
    }
    out += object ? '}' : ']';
}

} // namespace

std::string
writeJson(const JsonValue &value)
{
    std::string out;
    appendJson(out, value, 0);
    out += '\n';
    return out;
}

std::string
writeJsonCompact(const JsonValue &value)
{
    std::string out;
    appendJson(out, value, -1);
    return out;
}

} // namespace pdnspot
