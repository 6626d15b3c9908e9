/**
 * @file
 * Minimal JSON reader/writer for harness tooling.
 *
 * The sweep engine writes its BENCH_<name>.json artifacts, journal
 * records and sandbox result frames through this module, and the
 * baseline identity gate (harness/bench_compare.hh) reads them back
 * and diffs them: a strict recursive-descent parser into an ordered
 * document tree, plus a serializer that round-trips doubles exactly
 * ("%.17g").
 *
 * Scope is deliberately small: UTF-8 text, no comments, no trailing
 * commas, objects keep insertion order (duplicate keys are a parse
 * error). Every malformed or truncated input is rejected with a
 * SimErrorKind::Config error naming the line — a corrupt artifact
 * must fail the gate loudly, not quietly compare equal.
 */

#ifndef CMPMEM_HARNESS_JSON_HH
#define CMPMEM_HARNESS_JSON_HH

#include <string>
#include <utility>
#include <vector>

namespace cmpmem
{

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

    JsonValue() = default;

    /**
     * Leaf constructors. makeNumber() stores a non-finite value as 0,
     * since JSON cannot represent it.
     */
    static JsonValue makeNull();
    static JsonValue makeBool(bool b);
    static JsonValue makeNumber(double v);
    static JsonValue makeString(std::string s);
    static JsonValue makeArray();
    static JsonValue makeObject();

    /**
     * Parse a complete JSON document; trailing non-whitespace (and
     * any other syntax error, including truncation) throws
     * SimErrorKind::Config with the offending line number.
     */
    static JsonValue parse(const std::string &text);

    /** parse() of a file's contents; unreadable files are Config errors. */
    static JsonValue parseFile(const std::string &path);

    Kind kind() const { return k; }
    bool isNull() const { return k == Kind::Null; }
    bool isBool() const { return k == Kind::Bool; }
    bool isNumber() const { return k == Kind::Number; }
    bool isString() const { return k == Kind::String; }
    bool isArray() const { return k == Kind::Array; }
    bool isObject() const { return k == Kind::Object; }

    /** Typed accessors; a kind mismatch throws SimErrorKind::Config. */
    bool asBool() const;
    double asNumber() const;
    const std::string &asString() const;

    /** Array elements (requires isArray()). */
    const std::vector<JsonValue> &items() const;
    std::vector<JsonValue> &items();

    /** Object members in insertion order (requires isObject()). */
    const std::vector<std::pair<std::string, JsonValue>> &members() const;

    /** Member lookup; null when absent (requires isObject()). */
    const JsonValue *find(const std::string &key) const;

    /** Member lookup; SimErrorKind::Config when absent. */
    const JsonValue &at(const std::string &key) const;
    JsonValue &at(const std::string &key);

    /** Insert or replace a member, preserving existing order. */
    void set(const std::string &key, JsonValue value);

    /** Append an array element (requires isArray()). */
    void append(JsonValue value);

    /**
     * Serialize. Nested containers indent by two spaces per level;
     * numbers print with "%.17g" so every double round-trips
     * bit-exactly through parse().
     */
    std::string dump() const;

    /**
     * Serialize onto a single line with no trailing newline — the
     * JSONL form used by the sweep journal and the supervisor's
     * result pipe. Same "%.17g" number convention as dump(), so the
     * two forms round-trip identically.
     */
    std::string dumpCompact() const;

  private:
    Kind k = Kind::Null;
    bool boolean = false;
    double number = 0;
    std::string text;
    std::vector<JsonValue> elems;
    std::vector<std::pair<std::string, JsonValue>> fields;

    void dumpTo(std::string &out, int depth) const;
    void dumpCompactTo(std::string &out) const;
};

} // namespace cmpmem

#endif // CMPMEM_HARNESS_JSON_HH
