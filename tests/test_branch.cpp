/**
 * @file
 * Unit tests for src/branch: the TAGE predictor.
 */

#include <gtest/gtest.h>

#include "branch/tage.hh"
#include "common/rng.hh"

namespace
{

/** Train/evaluate accuracy of a predictor on an outcome generator. */
template <typename Gen>
double
accuracy(sb::TagePredictor &pred, Gen gen, int warmup, int measure)
{
    std::uint64_t hist = 0;
    int correct = 0;
    for (int i = 0; i < warmup + measure; ++i) {
        const bool taken = gen(i);
        const bool guess = pred.predict(100, hist);
        if (i >= warmup && guess == taken)
            ++correct;
        pred.update(100, hist, taken);
        hist = (hist << 1) | (taken ? 1 : 0);
    }
    return static_cast<double>(correct) / measure;
}

TEST(Tage, LearnsAlwaysTaken)
{
    sb::TagePredictor pred;
    const double acc =
        accuracy(pred, [](int) { return true; }, 10, 500);
    EXPECT_GT(acc, 0.99);
}

TEST(Tage, LearnsPeriodicPattern)
{
    // Period-5 loop-exit pattern: history-based prediction nails it
    // (a per-PC 2-bit counter tops out at 80%).
    auto pattern = [](int i) { return i % 5 != 4; };
    sb::TagePredictor tage;
    EXPECT_GT(accuracy(tage, pattern, 2000, 2000), 0.95);
}

TEST(Tage, StrugglesOnRandomOutcomes)
{
    sb::Rng rng(3);
    sb::TagePredictor pred;
    const double acc = accuracy(
        pred, [&](int) { return rng.chance(0.5); }, 2000, 4000);
    EXPECT_GT(acc, 0.40);
    EXPECT_LT(acc, 0.62);
}

TEST(Tage, BiasedRandomApproachesBiasRate)
{
    sb::Rng rng(5);
    sb::TagePredictor pred;
    // 12.5% taken: predicting not-taken is right 87.5% of the time.
    const double acc = accuracy(
        pred, [&](int) { return rng.chance(0.125); }, 2000, 4000);
    EXPECT_GT(acc, 0.80);
}

TEST(Tage, DistinguishesDifferentPcs)
{
    sb::TagePredictor pred;
    std::uint64_t hist = 0;
    // PC 1 always taken, PC 2 never taken.
    for (int i = 0; i < 200; ++i) {
        pred.update(1, hist, true);
        pred.update(2, hist, false);
    }
    EXPECT_TRUE(pred.predict(1, hist));
    EXPECT_FALSE(pred.predict(2, hist));
}

TEST(Tage, DeterministicAcrossInstances)
{
    auto run = []() {
        sb::TagePredictor pred;
        sb::Rng rng(9);
        std::uint64_t hist = 0;
        std::uint64_t signature = 0;
        for (int i = 0; i < 3000; ++i) {
            const std::uint64_t pc = rng.below(64);
            const bool taken = rng.chance(0.3);
            signature = (signature << 1)
                        ^ (pred.predict(pc, hist) ? 0x9E3779B9 : 0x85EBCA6B);
            pred.update(pc, hist, taken);
            hist = (hist << 1) | (taken ? 1 : 0);
        }
        return signature;
    };
    EXPECT_EQ(run(), run());
}

} // anonymous namespace
