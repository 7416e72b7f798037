/**
 * @file
 * In-core invariant checkers.
 *
 * Pure observers over the pipeline's structural invariants — they
 * never touch simulated state or timing, only record violations:
 *
 *  - ROB commit order: committed sequence numbers strictly increase,
 *    and only completed, unsquashed instructions retire;
 *  - shadow-tracker stamp monotonicity: the visibility point the
 *    core observes never moves backwards across ticks (the tracker
 *    additionally hard-asserts its own per-update step);
 *  - issue-queue wakeup consistency: an instruction (or store half)
 *    that wins select must have its scoreboard operands broadcast;
 *  - execute order: the instructions selected in one cycle execute
 *    oldest first (select fills the list in age order, unsorted);
 *  - LSU forwarding sanity: a load only forwards from a strictly
 *    older store with a valid address.
 *
 * Activation: `SB_INVARIANTS=1` forces the checks on, `=0` forces
 * them off; unset, they are on in debug builds (!NDEBUG) and off in
 * release. Every core reads the variable; any other value is ignored
 * with a warning printed once per process. The conformance harness force-enables them per core
 * (Core::setInvariantsEnabled) whatever the default, and fails any
 * fuzz cell whose violation count is nonzero — so a checker trip is
 * reported with a replayable seed instead of aborting the batch.
 */

#ifndef SB_CORE_INVARIANTS_HH
#define SB_CORE_INVARIANTS_HH

#include <cstdint>
#include <string>

#include "core/dyn_inst.hh"

namespace sb
{

class InvariantChecker
{
  public:
    InvariantChecker() : active(defaultActive()) {}

    /** Build/environment default (see file comment). */
    static bool defaultActive();

    bool on() const { return active; }
    void setActive(bool enable) { active = enable; }

    // --- Check points (call only when on()) --------------------------
    /** An instruction is retiring from the ROB head. */
    void onCommit(const DynInst &inst);

    /** The shadow tracker published a new visibility point. */
    void onVisibilityPoint(SeqNum vp);

    /**
     * An instruction (or store half) won a select port; @p src1_done
     * / @p src2_done are the scoreboard bits for the operands the op
     * actually reads (true for absent operands).
     */
    void onIssue(const DynInst &inst, bool src1_done, bool src2_done);

    /** A load is forwarding from store @p source. */
    void onForward(const DynInst &load, SeqNum source);

    /** Execute reached @p inst; @p prev_seq is the sequence number of
     *  the live instruction it executed before it this cycle (0 for
     *  the first). */
    void onExecute(const DynInst &inst, SeqNum prev_seq);

    // --- Results -----------------------------------------------------
    std::uint64_t violations() const { return count; }
    /** First violation's description; empty when clean. */
    const std::string &firstViolation() const { return first; }

  private:
    void fail(std::string message);

    bool active;
    SeqNum lastCommitSeq = 0;
    SeqNum lastVp = 0;
    std::uint64_t count = 0;
    std::string first;
};

} // namespace sb

#endif // SB_CORE_INVARIANTS_HH
