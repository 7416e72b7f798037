/**
 * @file
 * TAGE-style tagged geometric-history predictor.
 *
 * The paper's gem5 configuration uses MultiperspectivePerceptronTAGE
 * (Table 2); this is a faithful-in-spirit TAGE: a bimodal base table
 * plus N tagged components with geometrically increasing history
 * lengths, usefulness counters, and allocate-on-mispredict. Folded
 * indices/tags are recomputed from the 64-bit history each call so
 * the predictor holds no speculative state; each predict() or
 * update() computes them once for all components.
 *
 * The core owns the speculative global-history register, snapshots it
 * per branch, and restores it on mispredict; updates happen at commit
 * with the history the branch was predicted under, mirroring BOOM.
 * Indirect-jump targets come from the BTB (branch/btb.hh).
 */

#ifndef SB_BRANCH_TAGE_HH
#define SB_BRANCH_TAGE_HH

#include <cstdint>
#include <vector>

namespace sb
{

/** TAGE with a bimodal base and four tagged components. */
class TagePredictor
{
  public:
    /** @param log_entries log2 of each tagged table's entry count. */
    explicit TagePredictor(unsigned log_entries = 10);

    /** Predict taken/not-taken for @p pc under history @p hist. */
    bool predict(std::uint64_t pc, std::uint64_t hist);
    /** Train with the committed outcome under the predict-time history. */
    void update(std::uint64_t pc, std::uint64_t hist, bool taken);

    /**
     * Reset the bimodal base and invalidate every tagged entry,
     * returning the predictor to its construction state (cold base
     * counters predict not-taken). The allocation seed is also reset
     * so a flushed predictor is bit-identical to a fresh one — flushes
     * keep runs deterministic and cache-reproducible. Wired to the
     * flush-on-context-switch policy: without it, state trained by one
     * protection domain steers speculation in the next (the Spectre
     * v2 / swapgs training channel).
     */
    void flushSpeculativeState();

  private:
    /** Read-only access to the tables for tests. */
    friend struct TagePredictorPeek;

    static constexpr unsigned numComponents = 4;

    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        std::int8_t ctr = 0;     ///< Signed: >= 0 predicts taken.
        std::uint8_t useful = 0;
    };

    struct Component
    {
        unsigned historyLength;
        std::vector<TaggedEntry> entries;
    };

    /** Every component's (index, tag) for one (pc, history). */
    struct Lookup
    {
        unsigned index[numComponents];
        std::uint16_t tag[numComponents];
        /** Longest-history matching component, or -1 for the base. */
        int provider;
    };

    /** Fold the low @p len bits of @p hist into @p bits bits. */
    static std::uint64_t fold(std::uint64_t hist, unsigned len,
                              unsigned bits);

    Lookup lookup(std::uint64_t pc, std::uint64_t hist) const;

    /** The prediction @p l makes. */
    bool predicted(const Lookup &l, std::uint64_t pc) const;

    unsigned logEntries;
    std::vector<std::uint8_t> base;   ///< 2-bit bimodal counters.
    std::vector<Component> components;
    std::uint64_t allocSeed = 0x1234; ///< Deterministic tie-breaking.
};

} // namespace sb

#endif // SB_BRANCH_TAGE_HH
