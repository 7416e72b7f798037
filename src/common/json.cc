#include "common/json.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace sb
{

Json
Json::boolean(bool value)
{
    Json j;
    j.kind_ = Kind::Bool;
    j.bool_ = value;
    return j;
}

Json
Json::num(std::uint64_t value)
{
    Json j;
    j.kind_ = Kind::Uint;
    j.uint_ = value;
    return j;
}

Json
Json::num(double value)
{
    Json j;
    j.kind_ = Kind::Double;
    j.double_ = value;
    return j;
}

Json
Json::str(std::string value)
{
    Json j;
    j.kind_ = Kind::String;
    j.string_ = std::move(value);
    return j;
}

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

bool
Json::asBool() const
{
    sb_assert(kind_ == Kind::Bool, "json: not a bool");
    return bool_;
}

std::uint64_t
Json::asUint() const
{
    sb_assert(kind_ == Kind::Uint, "json: not a uint");
    return uint_;
}

double
Json::asDouble() const
{
    if (kind_ == Kind::Uint)
        return static_cast<double>(uint_);
    sb_assert(kind_ == Kind::Double, "json: not a number");
    return double_;
}

const std::string &
Json::asString() const
{
    sb_assert(kind_ == Kind::String, "json: not a string");
    return string_;
}

const std::vector<Json> &
Json::items() const
{
    sb_assert(kind_ == Kind::Array, "json: not an array");
    return items_;
}

const std::map<std::string, Json> &
Json::fields() const
{
    sb_assert(kind_ == Kind::Object, "json: not an object");
    return fields_;
}

bool
Json::has(const std::string &key) const
{
    return kind_ == Kind::Object && fields_.count(key) != 0;
}

const Json &
Json::at(const std::string &key) const
{
    sb_assert(kind_ == Kind::Object, "json: not an object");
    auto it = fields_.find(key);
    sb_assert(it != fields_.end(), "json: missing key '", key, "'");
    return it->second;
}

Json &
Json::set(const std::string &key, Json value)
{
    sb_assert(kind_ == Kind::Object, "json: set on non-object");
    fields_[key] = std::move(value);
    return *this;
}

Json &
Json::push(Json value)
{
    sb_assert(kind_ == Kind::Array, "json: push on non-array");
    items_.push_back(std::move(value));
    return *this;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
Json::dump() const
{
    switch (kind_) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return bool_ ? "true" : "false";
      case Kind::Uint: {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(uint_));
        return buf;
      }
      case Kind::Double: {
        if (!std::isfinite(double_))
            return "null";
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", double_);
        return buf;
      }
      case Kind::String:
        return "\"" + jsonEscape(string_) + "\"";
      case Kind::Array: {
        std::string out = "[";
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ",";
            out += items_[i].dump();
        }
        return out + "]";
      }
      case Kind::Object: {
        std::string out = "{";
        bool first = true;
        for (const auto &kv : fields_) {
            if (!first)
                out += ",";
            first = false;
            out += "\"" + jsonEscape(kv.first) + "\":" + kv.second.dump();
        }
        return out + "}";
      }
    }
    sb_panic("json: unknown kind");
}

namespace
{

/** Recursive-descent parser over a [begin, end) character range. */
struct JsonParser
{
    const char *p;
    const char *end;
    std::string err;

    bool
    fail(const std::string &message)
    {
        if (err.empty())
            err = message;
        return false;
    }

    void
    skipWs()
    {
        while (p < end
               && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r'))
            ++p;
    }

    bool
    literal(const char *text)
    {
        for (const char *t = text; *t; ++t, ++p) {
            if (p >= end || *p != *t)
                return fail(std::string("expected '") + text + "'");
        }
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (p >= end || *p != '"')
            return fail("expected string");
        ++p;
        out.clear();
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return fail("truncated escape");
                switch (*p) {
                  case '"':  out += '"';  break;
                  case '\\': out += '\\'; break;
                  case '/':  out += '/';  break;
                  case 'b':  out += '\b'; break;
                  case 'f':  out += '\f'; break;
                  case 'n':  out += '\n'; break;
                  case 'r':  out += '\r'; break;
                  case 't':  out += '\t'; break;
                  case 'u': {
                    if (end - p < 5)
                        return fail("truncated \\u escape");
                    char hex[5] = {p[1], p[2], p[3], p[4], 0};
                    char *hend = nullptr;
                    const unsigned long cp = std::strtoul(hex, &hend, 16);
                    if (hend != hex + 4)
                        return fail("bad \\u escape");
                    // BMP-only UTF-8 encoding (no surrogate pairs):
                    // sufficient for the ASCII artifacts we produce.
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    p += 4;
                    break;
                  }
                  default:
                    return fail("unknown escape");
                }
                ++p;
            } else {
                out += *p++;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // Closing quote.
        return true;
    }

    bool
    parseNumber(Json &out)
    {
        const char *start = p;
        bool floating = false;
        if (p < end && (*p == '-' || *p == '+'))
            ++p;
        while (p < end
               && ((*p >= '0' && *p <= '9') || *p == '.' || *p == 'e'
                   || *p == 'E' || *p == '-' || *p == '+')) {
            if (*p == '.' || *p == 'e' || *p == 'E')
                floating = true;
            ++p;
        }
        if (p == start)
            return fail("expected number");
        const std::string text(start, p);
        if (!floating && text[0] != '-') {
            char *tend = nullptr;
            errno = 0;
            const unsigned long long v =
                std::strtoull(text.c_str(), &tend, 10);
            if (tend != text.c_str() + text.size())
                return fail("bad integer");
            if (errno == ERANGE)
                return fail("integer out of range");
            out = Json::num(static_cast<std::uint64_t>(v));
        } else {
            char *tend = nullptr;
            errno = 0;
            const double v = std::strtod(text.c_str(), &tend);
            if (tend != text.c_str() + text.size())
                return fail("bad number");
            if (errno == ERANGE && !std::isfinite(v))
                return fail("number out of range");
            out = Json::num(v);
        }
        return true;
    }

    /**
     * Nesting bound so a corrupt line of repeated '['/'{' fails
     * cleanly instead of overflowing the stack: malformed cache
     * input must degrade to a skipped line, never a crash.
     */
    static constexpr int maxDepth = 96;

    bool
    parseValue(Json &out, int depth)
    {
        if (depth > maxDepth)
            return fail("nesting too deep");
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
          case '{': {
            ++p;
            out = Json::object();
            skipWs();
            if (p < end && *p == '}') {
                ++p;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (p >= end || *p != ':')
                    return fail("expected ':'");
                ++p;
                Json value;
                if (!parseValue(value, depth + 1))
                    return false;
                out.set(key, std::move(value));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == '}') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or '}'");
            }
          }
          case '[': {
            ++p;
            out = Json::array();
            skipWs();
            if (p < end && *p == ']') {
                ++p;
                return true;
            }
            while (true) {
                Json value;
                if (!parseValue(value, depth + 1))
                    return false;
                out.push(std::move(value));
                skipWs();
                if (p < end && *p == ',') {
                    ++p;
                    continue;
                }
                if (p < end && *p == ']') {
                    ++p;
                    return true;
                }
                return fail("expected ',' or ']'");
            }
          }
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json::str(std::move(s));
            return true;
          }
          case 't':
            if (!literal("true"))
                return false;
            out = Json::boolean(true);
            return true;
          case 'f':
            if (!literal("false"))
                return false;
            out = Json::boolean(false);
            return true;
          case 'n':
            if (!literal("null"))
                return false;
            out = Json();
            return true;
          default:
            return parseNumber(out);
        }
    }
};

} // anonymous namespace

bool
Json::parse(const std::string &text, Json &out, std::string *err)
{
    JsonParser parser{text.data(), text.data() + text.size(), {}};
    if (!parser.parseValue(out, 0)) {
        if (err)
            *err = parser.err;
        return false;
    }
    parser.skipWs();
    if (parser.p != parser.end) {
        if (err)
            *err = "trailing characters";
        return false;
    }
    return true;
}

void
writeJsonFile(const std::string &path, const Json &doc, std::FILE *out)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return;
    }
    const std::string text = doc.dump() + "\n";
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::fprintf(out, "wrote %s\n", path.c_str());
}

} // namespace sb
