/**
 * @file
 * Minimal JSON value: build, serialize, and parse — just enough for
 * the content-addressed result cache (JSONL lines) and the
 * machine-readable BENCH_*.json / SBSIM_*.json artifacts.
 *
 * Deliberately not a general-purpose JSON library: numbers are kept
 * as uint64 when they are non-negative integrals (so cycle and
 * instruction counts round-trip bit-exactly) and double otherwise;
 * object keys are stored sorted; non-finite doubles serialize as
 * null.
 */

#ifndef SB_COMMON_JSON_HH
#define SB_COMMON_JSON_HH

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace sb
{

class Json
{
  public:
    enum class Kind { Null, Bool, Uint, Double, String, Array, Object };

    /** A null value. */
    Json() = default;

    static Json boolean(bool value);
    static Json num(std::uint64_t value);
    static Json num(double value);
    static Json str(std::string value);
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed access; panics when the kind does not match. */
    bool asBool() const;
    std::uint64_t asUint() const;
    /** Double value; a Uint promotes. */
    double asDouble() const;
    const std::string &asString() const;
    const std::vector<Json> &items() const;
    const std::map<std::string, Json> &fields() const;

    bool has(const std::string &key) const;
    /** Member lookup; panics when missing or not an object. */
    const Json &at(const std::string &key) const;

    /** Set an object member (panics on non-objects). */
    Json &set(const std::string &key, Json value);
    /** Append an array element (panics on non-arrays). */
    Json &push(Json value);

    /** Compact single-line serialization. */
    std::string dump() const;

    /**
     * Parse @p text into @p out. Returns false on malformed input and,
     * when @p err is non-null, stores a description there.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string *err = nullptr);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    std::uint64_t uint_ = 0;
    double double_ = 0.0;
    std::string string_;
    std::vector<Json> items_;
    std::map<std::string, Json> fields_;
};

/** Escape @p s for embedding inside a JSON string literal. */
std::string jsonEscape(const std::string &s);

/**
 * Write @p doc to the file @p path as one line (dump() and a newline)
 * and print "wrote <path>" to @p out; if the file cannot be opened,
 * print "cannot open <path>" to stderr instead.
 */
void writeJsonFile(const std::string &path, const Json &doc,
                   std::FILE *out = stdout);

} // namespace sb

#endif // SB_COMMON_JSON_HH
