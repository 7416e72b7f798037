/**
 * @file
 * Delay-on-Miss (DoM): speculative loads that miss in the L1 stall
 * until they reach the point of no speculation.
 *
 * The scheme family of Sakalis et al. ("Efficient Invisible
 * Speculative Execution through Selective Delay and Value
 * Prediction", ISCA 2019), realised on this core's C/D-shadow
 * machinery: a speculative load whose line is L1-resident proceeds
 * normally (a hit changes no cache state an attacker can probe),
 * while a speculative load that would launch a demand miss is parked
 * at the delayLoadMiss() hook instead — no MSHR is allocated, no
 * fill walks the hierarchy. Each cycle the parked set is checked
 * against the visibility point; loads the point has passed re-enter
 * the memory pipeline through Core::retryLoad() (oldest first, like
 * an MSHR-reject retry), and squashed loads are dropped without ever
 * having touched the caches — which is exactly why the transient
 * probe-array fill of a Spectre gadget never happens.
 *
 * Contract: DoM polices the *memory side channel*, not dataflow.
 * Tainted transmitters still execute when they hit, so the STT
 * obligation (ContractPolicy::TransmitterSafe) is deliberately not
 * declared; the scheme declares the observational sandboxing
 * contract only (SecurityContract::sandboxing()): paired
 * secret-flipped runs must not leak through a receiver nor diverge
 * in their committed observation traces.
 *
 * Modeling simplification: speculative hits proceed through the
 * normal access path, including replacement/prefetcher metadata
 * updates (the paper discusses suppressing those separately). The
 * differential verifier is the judge of whether that matters for a
 * given gadget battery.
 */

#ifndef SB_SECURE_DOM_HH
#define SB_SECURE_DOM_HH

#include <vector>

#include "core/core.hh"
#include "core/scheme_iface.hh"

namespace sb
{

/** Delay-on-Miss: park speculative L1 misses until safe. */
class DomScheme : public SecureScheme
{
  public:
    explicit DomScheme(const SchemeConfig & /* config */) {}

    const char *name() const override { return "DoM"; }
    Scheme kind() const override { return Scheme::DelayOnMiss; }

    SecurityContract
    contract() const override
    {
        return SecurityContract::sandboxing();
    }

    bool delayLoadMiss(InstHandle h, const DynInst &load) override;
    void tick() override;
    void onSquash(SeqNum youngest_surviving) override;

    /** Loads currently parked on a speculative miss (for tests). */
    std::size_t parkedLoads() const { return parked.size(); }

  private:
    /** A parked load: handle for re-injection, seq for ordering. */
    struct Parked
    {
        InstHandle handle;
        SeqNum seq;
    };

    std::vector<Parked> parked;
    std::vector<Parked> releaseScratch;
};

} // namespace sb

#endif // SB_SECURE_DOM_HH
