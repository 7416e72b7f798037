/**
 * @file
 * Shared FNV-1a 64 hashing.
 *
 * One definition of the constants and the byte-fold, so every digest
 * in the repository (spec keys, observation traces, conformance
 * fingerprints) stays comparable with itself across modules. FNV-1a
 * is used everywhere a content hash is needed because it is trivially
 * portable and bit-stable across hosts — none of these digests are
 * security-sensitive.
 */

#ifndef SB_COMMON_HASH_HH
#define SB_COMMON_HASH_HH

#include <cstdint>
#include <cstdio>
#include <string>

namespace sb
{

/** FNV-1a 64 offset basis (the seed for an empty digest). */
constexpr std::uint64_t fnv1aBasis = 0xcbf29ce484222325ULL;

/** Fold one 64-bit word into @p hash, least-significant byte first. */
constexpr std::uint64_t
fnv1aWord(std::uint64_t hash, std::uint64_t word)
{
    for (unsigned byte = 0; byte < 8; ++byte) {
        hash ^= (word >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** Fold a byte string into @p hash. */
inline std::uint64_t
fnv1aString(std::uint64_t hash, const std::string &text)
{
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/** @p value as 16 zero-padded lower-case hex digits (spec keys, cache
 *  checksums, conformance mismatch details). */
inline std::string
hex16(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace sb

#endif // SB_COMMON_HASH_HH
