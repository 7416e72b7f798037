/**
 * @file
 * STT-Rename: Speculative Taint Tracking with taint computation in
 * the rename stage (paper Sec. 4.1-4.2).
 *
 * A taint RAT keyed by *architectural* register carries the YRoT of
 * each register. The YRoT of every renamed instruction is computed
 * serially across the rename group — same-cycle dependencies chain
 * exactly as in Fig. 3 (the single-cycle timing cost of that chain is
 * charged by the synthesis model, src/synth). Tainted transmitters
 * are kept from issue until their YRoT passes the visibility point;
 * because rename-stage taint state learns of untaints through a
 * broadcast, the unblock is observed one cycle late (Sec. 9.1).
 *
 * Mispredict recovery restores taint-RAT state exactly via the
 * squash walk (the functional equivalent of the checkpoint restore +
 * stale-entry invalidation of Sec. 4.2; stale roots are additionally
 * filtered against the visibility point on every read).
 */

#ifndef SB_SECURE_STT_RENAME_HH
#define SB_SECURE_STT_RENAME_HH

#include <array>

#include "core/core.hh"
#include "core/scheme_iface.hh"

namespace sb
{

/** STT with rename-stage tainting. */
class SttRenameScheme : public SecureScheme
{
  public:
    explicit SttRenameScheme(const SchemeConfig &config)
        : schemeCfg(config)
    {
        taintRat.fill(invalidSeqNum);
    }

    const char *name() const override { return "STT-Rename"; }
    Scheme kind() const override { return Scheme::SttRename; }

    SecurityContract
    contract() const override
    {
        return SecurityContract::transmitterSafe();
    }

    void onRenameGroup(const std::vector<DynInst *> &group) override;
    bool selectVeto(const DynInst &inst, bool addr_half) override;
    void onSquashWalk(const DynInst &inst) override;

    /** Current taint of an architectural register (for tests). */
    YRoT archTaint(ArchReg reg) const { return taintRat[reg]; }

  private:
    SchemeConfig schemeCfg;
    std::array<YRoT, numArchRegs> taintRat;
};

} // namespace sb

#endif // SB_SECURE_STT_RENAME_HH
