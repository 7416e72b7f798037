/**
 * @file
 * The cell kinds behind ExperimentRunner::runOne (harness-internal;
 * a test may drive one by hand on a program no RunSpec can name).
 *
 * runOne does what every cell shares: it builds the program through
 * the kind's driver, applies the spec's mitigation, constructs the one
 * Core, installs the one commit hook, arms supervision and fills the
 * outcome header. A CellDriver supplies what differs per kind. Each
 * kind implements its driver next to its workload-name codec and fold;
 * the kind table itself lives in experiment.cc.
 */

#ifndef SB_HARNESS_CELL_DRIVER_HH
#define SB_HARNESS_CELL_DRIVER_HH

#include <cstdint>
#include <memory>

#include "harness/experiment.hh"

namespace sb
{

class Core;
struct DynInst;

/** One cell in flight: the state a kind keeps between building its
 *  program, watching commits and writing its outcome. */
class CellDriver
{
  public:
    virtual ~CellDriver() = default;

    /** The program as written; runOne applies the spec's mitigation. */
    virtual const Program &program() const = 0;

    /** One committed instruction, at the PC it has in program():
     *  mitigation glue never arrives here. Called for whole-program
     *  kinds, and for every mitigated cell. */
    virtual void onCommit(const DynInst &, std::uint32_t /*pc*/, Cycle) {}

    /** Set the kind's own observers, run @p core, and write cycles,
     *  instructions and the kind's stats into @p out. */
    virtual void drive(Core &core, RunOutcome &out) = 0;
};

/** "gadget:" cells (verify.cc). */
std::unique_ptr<CellDriver> makeGadgetCell(const RunSpec &spec);

/** "fuzz:" cells (conformance.cc). */
std::unique_ptr<CellDriver> makeFuzzCell(const RunSpec &spec);

/** "mt:" cells (tenant.cc). */
std::unique_ptr<CellDriver> makeTenantCell(const RunSpec &spec);

} // namespace sb

#endif // SB_HARNESS_CELL_DRIVER_HH
