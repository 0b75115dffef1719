/**
 * @file
 * Minimal JSON support for structured statistics export: a writer for
 * machine-readable output from the CLI and the experiment runners, and a
 * small strict parser so tooling (the bsim-stats-v1 lint, the tests)
 * can read documents back without scraping ASCII tables. Both are
 * pinned by tests/test_json.
 */

#ifndef BSIM_COMMON_JSON_HH
#define BSIM_COMMON_JSON_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bsim {

class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Emit an object key (must be inside an object). */
    JsonWriter &key(const std::string &k);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(unsigned v);
    JsonWriter &value(bool v);
    JsonWriter &null();

    /**
     * Emit an already-serialized scalar token verbatim (no quoting or
     * escaping), e.g. a number formatted by the caller; the caller is
     * responsible for token validity.
     */
    JsonWriter &raw(const std::string &token);

    /** Shorthand: key + value. */
    template <typename T>
    JsonWriter &
    kv(const std::string &k, const T &v)
    {
        key(k);
        return value(v);
    }

    /** The serialized document. All containers must be closed. */
    std::string str() const;

    /** True when every beginObject/beginArray has been closed. */
    bool complete() const { return stack_.empty() && started_; }

    /** Escape a string per RFC 8259 (exposed for tests). */
    static std::string escape(const std::string &s);

  private:
    enum class Ctx : std::uint8_t { Object, Array };
    /** An open container and whether it already holds an element. */
    struct Frame
    {
        Ctx ctx;
        bool hasElement;
    };

    /** Emit the separator a new value needs and mark the document begun. */
    void beginValue();
    JsonWriter &quoted(std::string_view v);

    std::string out_;
    std::vector<Frame> stack_;
    bool pendingKey_ = false;
    bool started_ = false;
};

/**
 * A parsed JSON document node. Numbers are stored as double (plus the
 * original lexeme in `string`, so integer-valued counters keep their
 * exact digits); object members keep their insertion order.
 */
struct JsonValue
{
    enum class Kind : std::uint8_t {
        Null, Bool, Number, String, Array, Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** String payload; for numbers, the verbatim source lexeme. */
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** Member lookup (objects only); nullptr when absent. */
    const JsonValue *find(const std::string &key) const;
};

/**
 * Strict RFC 8259 parser (no comments, no trailing commas, exactly one
 * top-level value). Returns nullopt and fills @p error (if non-null)
 * with a "offset N: reason" message on malformed input.
 */
std::optional<JsonValue> parseJson(const std::string &text,
                                   std::string *error = nullptr);

} // namespace bsim

#endif // BSIM_COMMON_JSON_HH
