#include "harness/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sim/sim_error.hh"

namespace cmpmem
{

namespace
{

/**
 * Recursive-descent parser over the whole document. Tracks the
 * current line so error messages point somewhere useful in a
 * multi-hundred-line artifact.
 */
class Parser
{
  public:
    explicit Parser(const std::string &src) : s(src) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipWs();
        if (pos != s.size())
            fail("trailing characters after the top-level value");
        return v;
    }

  private:
    const std::string &s;
    std::size_t pos = 0;
    int line = 1;

    [[noreturn]] void
    fail(const std::string &what) const
    {
        throwSimError(SimErrorKind::Config,
                      "JSON parse error at line %d: %s", line,
                      what.c_str());
    }

    void
    skipWs()
    {
        while (pos < s.size()) {
            char c = s[pos];
            if (c == '\n')
                ++line;
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos;
        }
    }

    char
    peek()
    {
        if (pos >= s.size())
            fail("unexpected end of input");
        return s[pos];
    }

    void
    expect(char c)
    {
        if (pos >= s.size() || s[pos] != c)
            fail(std::string("expected '") + c + "'");
        ++pos;
    }

    bool
    consumeWord(const char *w)
    {
        std::size_t n = 0;
        while (w[n])
            ++n;
        if (s.compare(pos, n, w) != 0)
            return false;
        pos += n;
        return true;
    }

    JsonValue
    value()
    {
        skipWs();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return JsonValue::makeString(string());
          case 't':
            if (consumeWord("true"))
                return JsonValue::makeBool(true);
            fail("invalid literal");
          case 'f':
            if (consumeWord("false"))
                return JsonValue::makeBool(false);
            fail("invalid literal");
          case 'n':
            if (consumeWord("null"))
                return JsonValue::makeNull();
            fail("invalid literal");
          default: return number();
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue obj = JsonValue::makeObject();
        skipWs();
        if (peek() == '}') {
            ++pos;
            return obj;
        }
        for (;;) {
            skipWs();
            if (peek() != '"')
                fail("expected a quoted object key");
            std::string key = string();
            if (obj.find(key))
                fail("duplicate object key \"" + key + "\"");
            skipWs();
            expect(':');
            obj.set(key, value());
            skipWs();
            char c = peek();
            ++pos;
            if (c == '}')
                return obj;
            if (c != ',')
                fail("expected ',' or '}' in object");
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue arr = JsonValue::makeArray();
        skipWs();
        if (peek() == ']') {
            ++pos;
            return arr;
        }
        for (;;) {
            arr.append(value());
            skipWs();
            char c = peek();
            ++pos;
            if (c == ']')
                return arr;
            if (c != ',')
                fail("expected ',' or ']' in array");
        }
    }

    std::string
    string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos >= s.size())
                fail("unterminated string");
            char c = s[pos++];
            if (c == '"')
                return out;
            if (c == '\n')
                fail("raw newline inside a string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= s.size())
                fail("unterminated escape sequence");
            char e = s[pos++];
            switch (e) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': out += unicodeEscape(); break;
              default: fail("invalid escape sequence");
            }
        }
    }

    std::string
    unicodeEscape()
    {
        if (pos + 4 > s.size())
            fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            char c = s[pos++];
            cp <<= 4;
            if (c >= '0' && c <= '9')
                cp |= unsigned(c - '0');
            else if (c >= 'a' && c <= 'f')
                cp |= unsigned(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                cp |= unsigned(c - 'A' + 10);
            else
                fail("invalid \\u escape digit");
        }
        // Encode as UTF-8. Surrogate pairs are not combined — the
        // artifact writer only ever emits \u00xx control escapes.
        std::string out;
        if (cp < 0x80) {
            out += char(cp);
        } else if (cp < 0x800) {
            out += char(0xc0 | (cp >> 6));
            out += char(0x80 | (cp & 0x3f));
        } else {
            out += char(0xe0 | (cp >> 12));
            out += char(0x80 | ((cp >> 6) & 0x3f));
            out += char(0x80 | (cp & 0x3f));
        }
        return out;
    }

    JsonValue
    number()
    {
        const std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        while (pos < s.size() &&
               ((s[pos] >= '0' && s[pos] <= '9') || s[pos] == '.' ||
                s[pos] == 'e' || s[pos] == 'E' || s[pos] == '+' ||
                s[pos] == '-'))
            ++pos;
        if (pos == start)
            fail("expected a value");
        const std::string tok = s.substr(start, pos - start);
        char *end = nullptr;
        double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || !std::isfinite(v))
            fail("malformed number \"" + tok + "\"");
        return JsonValue::makeNumber(v);
    }
};

void
escapeTo(std::string &out, const std::string &s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

} // namespace

JsonValue
JsonValue::makeNull()
{
    return JsonValue();
}

JsonValue
JsonValue::makeBool(bool b)
{
    JsonValue v;
    v.k = Kind::Bool;
    v.boolean = b;
    return v;
}

JsonValue
JsonValue::makeNumber(double d)
{
    JsonValue v;
    v.k = Kind::Number;
    // JSON has no NaN or infinity; 0 keeps every dump parseable.
    v.number = std::isfinite(d) ? d : 0;
    return v;
}

JsonValue
JsonValue::makeString(std::string s)
{
    JsonValue v;
    v.k = Kind::String;
    v.text = std::move(s);
    return v;
}

JsonValue
JsonValue::makeArray()
{
    JsonValue v;
    v.k = Kind::Array;
    return v;
}

JsonValue
JsonValue::makeObject()
{
    JsonValue v;
    v.k = Kind::Object;
    return v;
}

JsonValue
JsonValue::parse(const std::string &text)
{
    return Parser(text).document();
}

JsonValue
JsonValue::parseFile(const std::string &path)
{
    std::ifstream ifs(path, std::ios::binary);
    if (!ifs)
        throwSimError(SimErrorKind::Config, "cannot read %s",
                      path.c_str());
    std::ostringstream ss;
    ss << ifs.rdbuf();
    try {
        return parse(ss.str());
    } catch (const SimError &e) {
        throwSimError(SimErrorKind::Config, "%s: %s", path.c_str(),
                      e.what());
    }
}

bool
JsonValue::asBool() const
{
    if (k != Kind::Bool)
        throwSimError(SimErrorKind::Config, "JSON value is not a bool");
    return boolean;
}

double
JsonValue::asNumber() const
{
    if (k != Kind::Number)
        throwSimError(SimErrorKind::Config, "JSON value is not a number");
    return number;
}

const std::string &
JsonValue::asString() const
{
    if (k != Kind::String)
        throwSimError(SimErrorKind::Config, "JSON value is not a string");
    return text;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    if (k != Kind::Array)
        throwSimError(SimErrorKind::Config, "JSON value is not an array");
    return elems;
}

std::vector<JsonValue> &
JsonValue::items()
{
    if (k != Kind::Array)
        throwSimError(SimErrorKind::Config, "JSON value is not an array");
    return elems;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    if (k != Kind::Object)
        throwSimError(SimErrorKind::Config, "JSON value is not an object");
    return fields;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (k != Kind::Object)
        throwSimError(SimErrorKind::Config, "JSON value is not an object");
    for (const auto &[name, value] : fields)
        if (name == key)
            return &value;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        throwSimError(SimErrorKind::Config,
                      "JSON object has no member \"%s\"", key.c_str());
    return *v;
}

JsonValue &
JsonValue::at(const std::string &key)
{
    return const_cast<JsonValue &>(
        static_cast<const JsonValue &>(*this).at(key));
}

void
JsonValue::set(const std::string &key, JsonValue value)
{
    if (k != Kind::Object)
        throwSimError(SimErrorKind::Config, "JSON value is not an object");
    for (auto &[name, existing] : fields) {
        if (name == key) {
            existing = std::move(value);
            return;
        }
    }
    fields.emplace_back(key, std::move(value));
}

void
JsonValue::append(JsonValue value)
{
    if (k != Kind::Array)
        throwSimError(SimErrorKind::Config, "JSON value is not an array");
    elems.push_back(std::move(value));
}

void
JsonValue::dumpTo(std::string &out, int depth) const
{
    const std::string pad(2 * std::size_t(depth + 1), ' ');
    const std::string close(2 * std::size_t(depth), ' ');
    switch (k) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += boolean ? "true" : "false";
        break;
      case Kind::Number: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", number);
        out += buf;
        break;
      }
      case Kind::String:
        escapeTo(out, text);
        break;
      case Kind::Array:
        if (elems.empty()) {
            out += "[]";
            break;
        }
        out += "[\n";
        for (std::size_t i = 0; i < elems.size(); ++i) {
            out += pad;
            elems[i].dumpTo(out, depth + 1);
            out += i + 1 < elems.size() ? ",\n" : "\n";
        }
        out += close + "]";
        break;
      case Kind::Object:
        if (fields.empty()) {
            out += "{}";
            break;
        }
        out += "{\n";
        for (std::size_t i = 0; i < fields.size(); ++i) {
            out += pad;
            escapeTo(out, fields[i].first);
            out += ": ";
            fields[i].second.dumpTo(out, depth + 1);
            out += i + 1 < fields.size() ? ",\n" : "\n";
        }
        out += close + "}";
        break;
    }
}

std::string
JsonValue::dump() const
{
    std::string out;
    dumpTo(out, 0);
    out += '\n';
    return out;
}

void
JsonValue::dumpCompactTo(std::string &out) const
{
    switch (k) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += boolean ? "true" : "false";
        break;
      case Kind::Number: {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", number);
        out += buf;
        break;
      }
      case Kind::String:
        escapeTo(out, text);
        break;
      case Kind::Array:
        out += '[';
        for (std::size_t i = 0; i < elems.size(); ++i) {
            if (i)
                out += ", ";
            elems[i].dumpCompactTo(out);
        }
        out += ']';
        break;
      case Kind::Object:
        out += '{';
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (i)
                out += ", ";
            escapeTo(out, fields[i].first);
            out += ": ";
            fields[i].second.dumpCompactTo(out);
        }
        out += '}';
        break;
    }
}

std::string
JsonValue::dumpCompact() const
{
    std::string out;
    dumpCompactTo(out);
    return out;
}

} // namespace cmpmem
