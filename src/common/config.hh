/**
 * @file
 * Core configurations and secure-scheme selection.
 *
 * The four BOOM configurations follow Table 1 of the paper (Small,
 * Medium, Large, Mega) with structure sizes taken from the public
 * SonicBOOM configurations. Two extra configurations (Gem5Stt,
 * Gem5Nda) mirror the simulator setups of the original STT and NDA
 * papers for the Table 5 comparison.
 */

#ifndef SB_COMMON_CONFIG_HH
#define SB_COMMON_CONFIG_HH

#include <string>
#include <vector>

namespace sb
{

/** Which secure speculation scheme the core runs. */
enum class Scheme
{
    Baseline,    ///< Unsafe, unprotected core.
    SttRename,   ///< STT with taint computation in the rename stage.
    SttIssue,    ///< STT with taint computation at instruction issue.
    Nda,         ///< NDA-Permissive: delayed load broadcast.
    NdaStrict,   ///< NDA-Strict extension: speculation is a full barrier.
    DelayOnMiss, ///< Speculative loads that miss in L1 wait for the
                 ///< visibility point; speculative hits proceed.
    DelayAll,    ///< Eager baseline: no load issues while speculative.
};

/** Printable scheme name, matching the paper's labels. */
const char *schemeName(Scheme scheme);

/** All schemes evaluated in the paper, in presentation order. */
std::vector<Scheme> paperSchemes();

/** Every implemented scheme (baseline first), in roster order. */
std::vector<Scheme> allSchemes();

struct SchemeConfig;

/** allSchemes() as default-knob SchemeConfigs (the roster the
 *  battery, scheme_compare, and the examples all sweep). */
std::vector<SchemeConfig> allSchemeConfigs();

/** Geometry of one cache level. */
struct CacheConfig
{
    unsigned sizeBytes = 32 * 1024;
    unsigned assoc = 8;
    unsigned lineBytes = 64;
    unsigned latency = 3;      ///< Hit latency in cycles.
    unsigned mshrs = 8;        ///< Outstanding-miss capacity.
    bool stridePrefetcher = true;
    unsigned prefetchDegree = 6;  ///< Lines fetched ahead per trigger.

    /**
     * Stable `key=value` serialization covering every field, used to
     * content-address simulation results (RunSpec::specKey()). Any
     * new field must be appended here or identical-looking configs
     * would alias in the result cache.
     */
    std::string canonical() const;
};

/**
 * Full configuration of one simulated core. Widths follow Table 1;
 * buffer sizes follow the SonicBOOM open-source configurations.
 */
struct CoreConfig
{
    std::string name = "mega";

    // --- Front end ---------------------------------------------------
    unsigned fetchWidth = 8;      ///< Instructions fetched per cycle.
    unsigned fetchBufferEntries = 32;

    // --- Width (Table 1 "Core Width") --------------------------------
    unsigned coreWidth = 4;       ///< Decode/rename/dispatch/commit width.
    unsigned issueWidth = 4;      ///< Issue (select) ports per cycle.
    unsigned memPorts = 2;        ///< Loads/stores issued per cycle.
    unsigned fpPorts = 2;         ///< FP operations issued per cycle.

    // --- Buffers ------------------------------------------------------
    unsigned robEntries = 128;
    unsigned iqEntries = 40;      ///< Unified issue-queue capacity.
    unsigned ldqEntries = 32;
    unsigned stqEntries = 32;
    unsigned numPhysRegs = 128;   ///< Physical register file size.
    unsigned maxBranches = 20;    ///< In-flight branches (checkpoints).

    // --- Execution latencies ------------------------------------------
    unsigned aluLatency = 1;
    unsigned mulLatency = 3;
    unsigned divLatency = 12;
    unsigned fpLatency = 4;
    unsigned fpDivLatency = 16;
    unsigned branchResolveLatency = 1;

    // --- Memory hierarchy ----------------------------------------------
    CacheConfig l1d;
    CacheConfig l2{512 * 1024, 8, 64, 14, 16, true};
    unsigned memLatency = 80;     ///< DRAM access latency in cycles.

    /** Pipeline depth from fetch to execute, for squash penalties. */
    unsigned frontendStages = 7;

    // --- Protection domains --------------------------------------------
    /**
     * Flush predictor state (TAGE tables, BTB, global history) on a
     * context switch. The default (keep) models hardware without
     * cross-domain predictor isolation — the state trained by one
     * tenant steers the next tenant's speculation, which is exactly
     * the Spectre v2 / swapgs training channel. Programs without
     * switch points never exercise either policy.
     */
    bool flushPredictorsOnSwitch = false;

    /**
     * Fetch-stall cycles charged on every context switch (pipeline
     * refill + privileged-state swap cost), on top of the squash.
     */
    unsigned contextSwitchPenalty = 48;

    /** Named presets (Table 1). */
    static CoreConfig small();
    static CoreConfig medium();
    static CoreConfig large();
    static CoreConfig mega();

    /** mega() with the flush-on-switch predictor policy. */
    static CoreConfig megaFlush();

    /** gem5 setups of the original papers (Table 5, Sec. 9.5). */
    static CoreConfig gem5Stt();
    static CoreConfig gem5Nda();

    /** The four BOOM presets in width order. */
    static std::vector<CoreConfig> boomPresets();

    /** Stable full-field serialization (see CacheConfig::canonical). */
    std::string canonical() const;
};

/** Per-scheme knobs, including the paper's ablations. */
struct SchemeConfig
{
    Scheme scheme = Scheme::Baseline;

    /**
     * Sec. 9.2 optimization: give stores two taints (address and data)
     * so STT-Rename can partially issue an untainted address half.
     */
    bool twoTaintStores = false;

    /**
     * Ablation of Sec. 5.1: keep speculative L1-hit scheduling enabled
     * under NDA instead of removing it.
     */
    bool ndaKeepSpeculativeScheduling = false;

    /** Stable full-field serialization (see CacheConfig::canonical). */
    std::string canonical() const;
};

/**
 * Reference point used for the paper's Redwood Cove extrapolations
 * (Table 1 rightmost column and Table 3).
 */
struct IntelReference
{
    static constexpr double specIpc = 2.03;
};

} // namespace sb

#endif // SB_COMMON_CONFIG_HH
