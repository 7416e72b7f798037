/**
 * @file
 * The traced run's cell replicas. A replica performs the same steps as
 * ExperimentRunner::runOne's path for its cell kind, but through each
 * module's public entry points (trace builders, isa generator and
 * transform, secure factory, Core), with a span around every call. Its
 * cycles and instructions must equal the engine's outcome for the same
 * spec exactly; the driver counts any difference as a failure.
 */

#ifndef PERFBENCH_REPLICA_HH
#define PERFBENCH_REPLICA_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hh"

namespace perfbench
{

/** One closed span. Times are seconds since the tracer's epoch. */
struct SpanRecord
{
    const char *name = "";
    double start = 0;
    double end = 0;
    /** Enclosing span in the same tracer, -1 for a root. */
    int parent = -1;
    /** Cell the span belongs to (the request identifier). */
    std::size_t cell = 0;
};

/** Span store of one thread; spans stay in memory until the run ends. */
class Tracer
{
  public:
    explicit Tracer(std::chrono::steady_clock::time_point epoch)
        : epoch(epoch)
    {
    }

    /** Cell that spans opened from now on belong to. */
    std::size_t cell = 0;
    std::vector<SpanRecord> spans;

    int open(const char *name);
    void close(int id);

  private:
    double now() const;

    std::chrono::steady_clock::time_point epoch;
    std::vector<int> stack;
};

/** Route this thread's spans into @p tracer (null: spans are off). */
void setThreadTracer(Tracer *tracer);

/** Scoped span in the calling thread's tracer; free when off. */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int id;
};

/** What one replayed cell computed. */
struct ReplicaResult
{
    /** Comparable to RunOutcome::cycles / ::instructions. */
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    /** The whole cell (a window cell's warmup included). */
    std::uint64_t cellCycles = 0;
    std::uint64_t cellInstructions = 0;
    /** Whole-cell core counters (slab_high_water: the maximum). */
    std::map<std::string, std::uint64_t> counters;
};

/** Replay @p spec, recording spans into the thread's tracer. */
ReplicaResult replayCell(const sb::RunSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_HH
