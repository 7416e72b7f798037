#include "synth/power_model.hh"

#include "common/logging.hh"
#include "synth/area_model.hh"

namespace sb
{

namespace
{

/** Share of power proportional to area (clock tree + static). */
constexpr double kAreaWeight = 0.6;
/** Share of power proportional to switching activity. */
constexpr double kActivityWeight = 0.4;

/** Calibrated per-scheme switching factors (Table 4). */
double
schemeActivity(Scheme scheme)
{
    switch (scheme) {
      case Scheme::Baseline:
        return 1.0;
      case Scheme::SttRename:
        return 0.93;  // Fewer issued/executed ops while blocked.
      case Scheme::SttIssue:
        return 0.976; // Kills and replays re-toggle select logic.
      case Scheme::Nda:
        return 0.87;  // No speculative wakeups, fewer broadcasts.
      case Scheme::NdaStrict:
        return 0.84;
      case Scheme::DelayOnMiss:
        return 0.965; // Squashed wrong-path misses never walk DRAM.
      case Scheme::DelayAll:
        return 0.80;  // Loads idle under every shadow: least toggling.
    }
    sb_panic("unknown scheme");
}

} // anonymous namespace

double
PowerModel::relative(const CoreConfig &config, Scheme scheme)
{
    const AreaEstimate rel = AreaModel::relative(config, scheme);
    return kAreaWeight * rel.luts
           + kActivityWeight * schemeActivity(scheme);
}

} // namespace sb
