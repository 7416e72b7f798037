/**
 * @file
 * NDA: Non-speculative Data Access (paper Sec. 5).
 *
 * NDA-Permissive decouples a load's register-file writeback from its
 * ready broadcast (Fig. 5): a load that completes while speculative
 * writes its data but does not wake dependents; once the visibility
 * point passes the load, a broadcast is queued, with at most
 * `memPorts` broadcasts per cycle (Sec. 5.1). NDA drops speculative
 * L1-hit scheduling, which simplifies the core (and its timing).
 *
 * NDA-Strict (threat-model extension, Sec. 2.3) additionally defers
 * the broadcast of *every* speculatively produced result, making
 * speculation a data-propagation barrier.
 */

#ifndef SB_SECURE_NDA_HH
#define SB_SECURE_NDA_HH

#include <algorithm>
#include <deque>

#include "core/core.hh"
#include "core/scheme_iface.hh"

namespace sb
{

/** NDA-Permissive delayed-broadcast scheme. */
class NdaScheme : public SecureScheme
{
  public:
    explicit NdaScheme(const SchemeConfig &config) : schemeCfg(config) {}

    const char *name() const override { return "NDA"; }
    Scheme kind() const override { return Scheme::Nda; }

    SecurityContract
    contract() const override
    {
        return SecurityContract::consumeSafe();
    }

    bool deferBroadcast(InstHandle h, const DynInst &inst,
                        Cycle ready_at) override;
    void tick() override;
    void onSquash(SeqNum youngest_surviving) override;

    bool
    allowsSpeculativeScheduling() const override
    {
        return schemeCfg.ndaKeepSpeculativeScheduling;
    }

    std::size_t pendingBroadcasts() const { return pending.size(); }

  protected:
    /**
     * A queued broadcast carries only what firing it needs: the
     * destination register and when. Squashed producers never fire
     * because onSquash erases by sequence number, and the core's
     * per-register allocation epoch drops a wakeup whose register
     * was re-allocated between scheduling and firing.
     */
    struct Pending
    {
        SeqNum seq;
        PhysReg pdst;
        Cycle readyAt;
    };

    /** Broadcast-port budget per cycle. */
    virtual unsigned broadcastBudget() const;

    SchemeConfig schemeCfg;
    std::deque<Pending> pending;
};

/** NDA-Strict: every speculative result's broadcast is deferred. */
class NdaStrictScheme : public NdaScheme
{
  public:
    explicit NdaStrictScheme(const SchemeConfig &config)
        : NdaScheme(config)
    {
    }

    const char *name() const override { return "NDA-Strict"; }
    Scheme kind() const override { return Scheme::NdaStrict; }

    bool deferBroadcast(InstHandle h, const DynInst &inst,
                        Cycle ready_at) override;

  protected:
    unsigned broadcastBudget() const override;
};

} // namespace sb

#endif // SB_SECURE_NDA_HH
