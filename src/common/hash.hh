/**
 * @file
 * 64-bit FNV-1a, the one structural hash behind every fingerprint in
 * the repository: simulation-memo keys (npusim::hashNetwork and
 * friends), fault-schedule hashes, bench-case fingerprints and the
 * check runner's outcome hash. Several of those values land in
 * committed, byte-compared artifacts, so the mixing order of each
 * caller is part of its output format.
 */

#ifndef SUPERNPU_COMMON_HASH_HH
#define SUPERNPU_COMMON_HASH_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

namespace supernpu {

/** Incremental 64-bit FNV-1a hasher. */
class Fnv1a
{
  public:
    static constexpr std::uint64_t kOffset = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;

    /** Start from the FNV offset basis, or continue from `seed`. */
    explicit Fnv1a(std::uint64_t seed = kOffset) : _hash(seed) {}

    /** Mix raw bytes in memory order. */
    Fnv1a &bytes(const void *data, std::size_t len)
    {
        const unsigned char *p = (const unsigned char *)data;
        for (std::size_t i = 0; i < len; ++i)
            byte(p[i]);
        return *this;
    }

    /** Mix a 64-bit word as 8 little-endian bytes on any host. */
    Fnv1a &word(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i)
            byte((unsigned char)(value >> (8 * i)));
        return *this;
    }

    /** Mix a double bit-exactly, as the word of its bit pattern. */
    Fnv1a &real(double value)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(value));
        std::memcpy(&bits, &value, sizeof(bits));
        return word(bits);
    }

    /** Mix a string length-delimited: its size as a word, then bytes. */
    Fnv1a &text(const std::string &value)
    {
        word((std::uint64_t)value.size());
        return bytes(value.data(), value.size());
    }

    std::uint64_t value() const { return _hash; }

  private:
    void byte(unsigned char value)
    {
        _hash ^= value;
        _hash *= kPrime;
    }

    std::uint64_t _hash;
};

} // namespace supernpu

#endif // SUPERNPU_COMMON_HASH_HH
