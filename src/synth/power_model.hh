/**
 * @file
 * Activity-based power model, calibrated at the Mega preset against
 * the paper's Table 4 (synthesised at 50 MHz): STT-Rename 1.008,
 * STT-Issue 1.026, NDA 0.936, relative to the unsafe baseline.
 *
 * Power splits into a static/area-proportional share and a dynamic
 * share scaled by a per-scheme switching-activity factor:
 *  - STT-Rename issues fewer instructions per cycle (blocked
 *    transmitters), roughly offsetting its added area;
 *  - STT-Issue's killed issues and replays re-toggle the select and
 *    taint-unit logic, a net increase;
 *  - NDA removes speculative wakeups and broadcasts less, a clear
 *    saving — the paper's sustainability argument (Sec. 8.5, 9.4).
 */

#ifndef SB_SYNTH_POWER_MODEL_HH
#define SB_SYNTH_POWER_MODEL_HH

#include "common/config.hh"

namespace sb
{

/** Activity-based power model. */
class PowerModel
{
  public:
    /** Power normalised to the unsafe baseline on the same config. */
    static double relative(const CoreConfig &config, Scheme scheme);
};

} // namespace sb

#endif // SB_SYNTH_POWER_MODEL_HH
