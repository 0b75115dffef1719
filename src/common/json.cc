#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "common/strings.hh"

namespace bsim {

namespace {

/** Append @p s escaped per RFC 8259; clean runs are copied in one go. */
void
appendEscaped(std::string &out, std::string_view s)
{
    std::size_t clean = 0; // start of the not-yet-copied run
    for (std::size_t i = 0; i < s.size(); ++i) {
        const unsigned char c = s[i];
        if (c >= 0x20 && c != '"' && c != '\\')
            continue;
        out.append(s, clean, i - clean);
        clean = i + 1;
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
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
            out += strprintf("\\u%04x", c);
        }
    }
    out.append(s, clean);
}

} // namespace

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    appendEscaped(out, s);
    return out;
}

void
JsonWriter::beginValue()
{
    started_ = true;
    if (pendingKey_) {
        pendingKey_ = false;
        return; // the key already emitted "k":
    }
    if (!stack_.empty()) {
        if (stack_.back().hasElement)
            out_ += ',';
        stack_.back().hasElement = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    beginValue();
    out_ += '{';
    stack_.push_back({Ctx::Object, false});
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    bsim_assert(!stack_.empty() && stack_.back().ctx == Ctx::Object,
                "endObject outside an object");
    out_ += '}';
    stack_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beginValue();
    out_ += '[';
    stack_.push_back({Ctx::Array, false});
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    bsim_assert(!stack_.empty() && stack_.back().ctx == Ctx::Array,
                "endArray outside an array");
    out_ += ']';
    stack_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    bsim_assert(!stack_.empty() && stack_.back().ctx == Ctx::Object,
                "key outside an object");
    bsim_assert(!pendingKey_, "two keys in a row");
    quoted(k);
    out_ += ':';
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::quoted(std::string_view v)
{
    beginValue();
    out_ += '"';
    appendEscaped(out_, v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    return quoted(v);
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return quoted(v);
}

JsonWriter &
JsonWriter::value(double v)
{
    beginValue();
    if (std::isfinite(v)) {
        // snprintf into a stack buffer: %.10g is the pinned format, and
        // to_chars' general form does not promise the same digits.
        char buf[32];
        const int n = std::snprintf(buf, sizeof buf, "%.10g", v);
        out_.append(buf, static_cast<std::size_t>(n));
    } else {
        // JSON has no NaN/Inf; emit null like most serializers.
        out_ += "null";
    }
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beginValue();
    appendUint(out_, v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    beginValue();
    appendInt(out_, v);
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(unsigned v)
{
    return value(static_cast<std::uint64_t>(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    beginValue();
    out_ += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    beginValue();
    out_ += "null";
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &token)
{
    beginValue();
    out_ += token;
    return *this;
}

std::string
JsonWriter::str() const
{
    bsim_assert(stack_.empty(), "unclosed JSON container");
    return out_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

namespace {

/** Recursive-descent RFC 8259 parser over a string_view-ish cursor. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    std::optional<JsonValue>
    run(std::string *error)
    {
        JsonValue v;
        if (!parseValue(v, 0) || (skipWs(), pos_ != text_.size())) {
            if (ok_)
                fail("trailing characters after the document");
            if (error)
                *error = error_;
            return std::nullopt;
        }
        return v;
    }

  private:
    static constexpr std::size_t kMaxDepth = 128;

    bool
    fail(const std::string &why)
    {
        if (ok_) {
            ok_ = false;
            error_ = "offset " + std::to_string(pos_) + ": " + why;
        }
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += len;
        return true;
    }

    bool
    parseValue(JsonValue &out, std::size_t depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        switch (text_[pos_]) {
          case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null", 4);
          case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
          case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
          case '"':
            out.kind = JsonValue::Kind::String;
            return parseString(out.string);
          case '[':
            return parseArray(out, depth);
          case '{':
            return parseObject(out, depth);
          default:
            return parseNumber(out);
        }
    }

    bool
    parseArray(JsonValue &out, std::size_t depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        for (;;) {
            JsonValue elem;
            if (!parseValue(elem, depth + 1))
                return false;
            out.array.push_back(std::move(elem));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseObject(JsonValue &out, std::size_t depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != '"')
                return fail("expected object key string");
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':' after object key");
            ++pos_;
            JsonValue val;
            if (!parseValue(val, depth + 1))
                return false;
            out.object.emplace_back(std::move(key), std::move(val));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    bool
    hex4(std::uint32_t &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            std::uint32_t d;
            if (c >= '0' && c <= '9')
                d = c - '0';
            else if (c >= 'a' && c <= 'f')
                d = 10 + c - 'a';
            else if (c >= 'A' && c <= 'F')
                d = 10 + c - 'A';
            else
                return fail("bad hex digit in \\u escape");
            out = out << 4 | d;
        }
        pos_ += 4;
        return true;
    }

    void
    appendUtf8(std::string &s, std::uint32_t cp)
    {
        if (cp < 0x80) {
            s += static_cast<char>(cp);
        } else if (cp < 0x800) {
            s += static_cast<char>(0xc0 | cp >> 6);
            s += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            s += static_cast<char>(0xe0 | cp >> 12);
            s += static_cast<char>(0x80 | (cp >> 6 & 0x3f));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            s += static_cast<char>(0xf0 | cp >> 18);
            s += static_cast<char>(0x80 | (cp >> 12 & 0x3f));
            s += static_cast<char>(0x80 | (cp >> 6 & 0x3f));
            s += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    parseString(std::string &out)
    {
        ++pos_; // opening quote
        for (;;) {
            if (pos_ >= text_.size())
                return fail("unterminated string");
            const unsigned char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20)
                return fail("unescaped control character in string");
            if (c != '\\') {
                out += static_cast<char>(c);
                ++pos_;
                continue;
            }
            ++pos_;
            if (pos_ >= text_.size())
                return fail("truncated escape");
            const char e = text_[pos_++];
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
              case 'u': {
                std::uint32_t cp = 0;
                if (!hex4(cp))
                    return false;
                if (cp >= 0xd800 && cp <= 0xdbff) {
                    // UTF-16 surrogate pair.
                    if (pos_ + 1 >= text_.size() ||
                        text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
                        return fail("unpaired UTF-16 surrogate");
                    pos_ += 2;
                    std::uint32_t lo = 0;
                    if (!hex4(lo))
                        return false;
                    if (lo < 0xdc00 || lo > 0xdfff)
                        return fail("bad low surrogate");
                    cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape sequence");
            }
        }
    }

    bool
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        const auto digits = [&] {
            const std::size_t d = pos_;
            while (pos_ < text_.size() && text_[pos_] >= '0' &&
                   text_[pos_] <= '9')
                ++pos_;
            return pos_ > d;
        };
        // No leading zeros: "0" alone or 1-9 followed by digits.
        if (pos_ < text_.size() && text_[pos_] == '0') {
            ++pos_;
        } else if (!digits()) {
            return fail("malformed number");
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (!digits())
                return fail("malformed number (no fraction digits)");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (!digits())
                return fail("malformed number (no exponent digits)");
        }
        out.kind = JsonValue::Kind::Number;
        out.string = text_.substr(start, pos_ - start);
        out.number = std::strtod(out.string.c_str(), nullptr);
        return true;
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
};

} // namespace

std::optional<JsonValue>
parseJson(const std::string &text, std::string *error)
{
    return Parser(text).run(error);
}

} // namespace bsim
