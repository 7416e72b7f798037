#include "core/invariants.hh"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "common/logging.hh"
#include "common/number.hh"

namespace sb
{

bool
InvariantChecker::defaultActive()
{
    if (const char *env = std::getenv("SB_INVARIANTS")) {
        std::uint64_t on = 0;
        if (parseUnsigned(env, on, 1))
            return on == 1;
        // Read per core (tests flip the variable between cores), but
        // warned about once per process rather than once per cell.
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            sb_warn("ignoring SB_INVARIANTS='", env, "' (want 0 or 1)");
    }
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

void
InvariantChecker::fail(std::string message)
{
    if (count == 0) {
        first = std::move(message);
        sb_warn("invariant violation: ", first);
    }
    ++count;
}

void
InvariantChecker::onCommit(const DynInst &inst)
{
    if (inst.seq <= lastCommitSeq) {
        fail(detail::concat("ROB commit order: seq ", inst.seq,
                            " retiring after seq ", lastCommitSeq,
                            " (pc=", inst.pc, ")"));
    }
    if (!inst.completed) {
        fail(detail::concat("ROB commit: incomplete seq ", inst.seq,
                            " retiring (pc=", inst.pc, ")"));
    }
    if (inst.squashed) {
        fail(detail::concat("ROB commit: squashed seq ", inst.seq,
                            " retiring (pc=", inst.pc, ")"));
    }
    lastCommitSeq = std::max(lastCommitSeq, inst.seq);
}

void
InvariantChecker::onVisibilityPoint(SeqNum vp)
{
    if (vp < lastVp) {
        fail(detail::concat("shadow tracker: visibility point moved "
                            "backwards (",
                            lastVp, " -> ", vp, ")"));
    }
    lastVp = std::max(lastVp, vp);
}

void
InvariantChecker::onIssue(const DynInst &inst, bool src1_done,
                          bool src2_done)
{
    if (!src1_done || !src2_done) {
        fail(detail::concat(
            "issue-queue wakeup: seq ", inst.seq, " (pc=", inst.pc,
            ") selected with unbroadcast operand (src1=", src1_done,
            " src2=", src2_done, ")"));
    }
    if (inst.squashed) {
        fail(detail::concat("issue-queue: squashed seq ", inst.seq,
                            " selected (pc=", inst.pc, ")"));
    }
}

void
InvariantChecker::onExecute(const DynInst &inst, SeqNum prev_seq)
{
    if (inst.seq <= prev_seq) {
        fail(detail::concat("execute order: seq ", inst.seq,
                            " executing after seq ", prev_seq,
                            " in the same cycle (pc=", inst.pc, ")"));
    }
}

void
InvariantChecker::onForward(const DynInst &load, SeqNum source)
{
    if (source == invalidSeqNum)
        return;
    if (source >= load.seq) {
        fail(detail::concat("LSU forwarding: load seq ", load.seq,
                            " forwarded from non-older store seq ",
                            source));
    }
    if (!load.effAddrValid) {
        fail(detail::concat("LSU forwarding: load seq ", load.seq,
                            " forwarded without a resolved address"));
    }
}

} // namespace sb
