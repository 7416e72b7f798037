/**
 * @file
 * Deterministic fault injection for the sharded experiment tier.
 *
 * The SB_FAULT environment variable arms faults that fire at exact,
 * reproducible points, so the supervision and recovery paths (worker
 * respawn, retry, quarantine, torn-record recovery) can be exercised
 * by tests instead of waiting for real crashes. The value is a
 * comma-separated list of directives:
 *
 *   crash:<n>       the process exits abruptly (no reply, no cleanup)
 *                   at the n-th crash point it reaches
 *   hang:<n>        the process stops making progress (sleeps
 *                   indefinitely) at the n-th hang point
 *   torn-write:<n>  the n-th armed cache append writes only a prefix
 *                   of its record, simulating a writer killed mid-write
 *   poison:<substr> every cell whose workload contains <substr>
 *                   crashes the worker that executes it (a poisoned
 *                   cell: fails on every attempt, on every worker)
 *
 * Counters are per-process: every shard worker, a fork of the
 * dispatcher, re-reads SB_FAULT (faultReset) and starts counting from
 * zero. With SB_FAULT unset every hook is a no-op costing one branch.
 */

#ifndef SB_COMMON_FAULT_HH
#define SB_COMMON_FAULT_HH

#include <string>

namespace sb
{

/**
 * Reach the @p kind fault point ("crash", "hang", "torn-write").
 * Returns true exactly when this is the n-th time this process
 * reaches a point of that kind and SB_FAULT armed `kind:n`. The
 * caller performs the fault (exit, sleep, short write).
 */
bool faultPoint(const char *kind);

/** True when SB_FAULT armed `poison:<substr>` and @p workload
 *  contains the substring. */
bool faultPoisoned(const std::string &workload);

/** True when any SB_FAULT directive is armed (cheap pre-check for
 *  logging). */
bool faultsArmed();

/** Re-read SB_FAULT and reset all counters: a forked shard worker
 *  starts from zero, and tests re-arm faults with it. */
void faultReset();

} // namespace sb

#endif // SB_COMMON_FAULT_HH
