/**
 * @file
 * Test-side views of an issue queue. The queue keeps one order, its
 * seq-ordered candidate list (select walks it; squash sweeps the
 * slots), so tests that inspect every entry sort the occupied slots by
 * sequence number.
 */

#ifndef SB_TESTS_IQ_ORDER_HH
#define SB_TESTS_IQ_ORDER_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "core/issue_queue.hh"

namespace sb_test
{

/** The queue's occupied entries, oldest first. */
inline std::vector<sb::IqEntry *>
byAge(sb::IssueQueue &iq)
{
    std::vector<sb::IqEntry *> out;
    for (std::int32_t idx = 0;
         idx < static_cast<std::int32_t>(iq.capacity()); ++idx) {
        if (iq.entryAt(idx).handle != sb::invalidInstHandle)
            out.push_back(&iq.entryAt(idx));
    }
    std::sort(out.begin(), out.end(),
              [](const sb::IqEntry *a, const sb::IqEntry *b) {
                  return a->seq < b->seq;
              });
    return out;
}

/** Seqs on the candidate list, in list order. */
inline std::vector<sb::SeqNum>
candidates(sb::IssueQueue &iq)
{
    std::vector<sb::SeqNum> out;
    for (std::int32_t idx = iq.firstReady(); idx >= 0;
         idx = iq.nextReady(idx))
        out.push_back(iq.entryAt(idx).seq);
    return out;
}

} // namespace sb_test

#endif // SB_TESTS_IQ_ORDER_HH
