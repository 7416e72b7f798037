/**
 * @file
 * STT-Issue: Speculative Taint Tracking with taint computation at
 * instruction issue (paper Sec. 4.3, Fig. 4).
 *
 * A taint unit keyed by *physical* register computes an
 * instruction's YRoT only when it wins a select port. Wakeup and
 * select are unmodified; a selected transmitter that turns out
 * tainted is killed into a nop (the slot is wasted) and its YRoT is
 * back-propagated to its issue-queue entry, masking ready until the
 * root passes the visibility point. No taint checkpoints are needed:
 * physical-register taint entries are always overwritten by a new
 * producer before any consumer can issue.
 *
 * Because the taint check happens at select against the *current*
 * visibility point, STT-Issue can issue an instruction the same
 * cycle its root becomes safe — one cycle earlier than STT-Rename
 * (Sec. 9.1).
 */

#ifndef SB_SECURE_STT_ISSUE_HH
#define SB_SECURE_STT_ISSUE_HH

#include <vector>

#include "core/core.hh"
#include "core/scheme_iface.hh"

namespace sb
{

/** STT with issue-stage tainting. */
class SttIssueScheme : public SecureScheme
{
  public:
    explicit SttIssueScheme(const SchemeConfig & /* config */) {}

    const char *name() const override { return "STT-Issue"; }
    Scheme kind() const override { return Scheme::SttIssue; }

    SecurityContract
    contract() const override
    {
        return SecurityContract::transmitterSafe();
    }

    void attach(Core &core) override;
    bool selectVeto(const DynInst &inst, bool addr_half) override;
    bool onSelect(DynInst &inst, bool addr_half) override;

  private:
    std::vector<YRoT> taintTable;
};

} // namespace sb

#endif // SB_SECURE_STT_ISSUE_HH
