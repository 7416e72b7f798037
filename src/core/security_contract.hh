/**
 * @file
 * Declarative security-contract descriptor for secure schemes.
 *
 * A scheme no longer answers three ad-hoc claims* booleans; it returns
 * one SecurityContract naming the hardware-software contract it
 * promises (Tan et al., "RTL Verification for Secure Speculation Using
 * Contract Shadow Logic"; Daniel et al., "ProSpeCT"), plus the dataflow
 * obligations the harness may hold it to. The gadget battery
 * (src/harness/verify.hh), the conformance fuzzer
 * (src/harness/conformance.hh) and the in-core contract shadow engine
 * (src/core/contract_shadow.hh) all judge against this descriptor.
 */

#ifndef SB_CORE_SECURITY_CONTRACT_HH
#define SB_CORE_SECURITY_CONTRACT_HH

namespace sb
{

/**
 * The contract a scheme declares, ordered weakest to strongest along
 * the observational axis. Policies are not a strict lattice — the
 * dataflow policies (TransmitterSafe, ConsumeSafe) imply Sandboxing,
 * but ConstantTime is a different axis (it also forbids
 * *architectural* secret transmission) that no modelled scheme
 * declares; it exists as a verifier override (`sbsim verify
 * --contract constant-time`).
 */
enum class ContractPolicy {
    /** No promise at all (the unsafe baseline). The verifier instead
     *  requires such a core to leak — proof the gadgets are armed. */
    None,

    /** STT obligation: no transmitter (load/store address, branch)
     *  executes with speculatively-tainted operands. */
    TransmitterSafe,

    /** NDA obligation: no instruction consumes a speculative load's
     *  value at all. Strictly stronger than TransmitterSafe. */
    ConsumeSafe,

    /** The observational leak-freedom notion: transiently-accessed
     *  (out-of-sandbox) secrets never reach a transmitter operand,
     *  and paired secret-flipped runs neither recover the secret nor
     *  diverge. Delay-on-Miss declares exactly this: tainted
     *  transmitters may *hit*, only the misses are hidden. */
    Sandboxing,

    /** ProSpeCT constant-time: secret-labelled data never reaches a
     *  transmitter operand, even architecturally. */
    ConstantTime,
};

/**
 * A scheme's full self-description: the declared policy plus the
 * concrete obligations the harness polices. The obligation flags are
 * derivable from the policy for every stock contract (use the named
 * constructors); they are kept explicit so a test scheme can declare
 * deliberately inconsistent combinations.
 */
struct SecurityContract {
    ContractPolicy policy = ContractPolicy::None;

    /** Contract-shadow STT transmit count must be zero. */
    bool obligesTransmitterSafety = false;

    /** Shadow NDA consume count must be zero (implies the above). */
    bool obligesConsumeSafety = false;

    /** Differential obligation: paired secret-flipped runs must
     *  neither recover the secret nor diverge in committed-load
     *  observation traces; the contract shadow engine additionally
     *  requires zero sandboxing violations. */
    bool obligesLeakFreedom = false;

    /** The unsafe baseline: promises nothing. */
    static constexpr SecurityContract
    none()
    {
        return {};
    }

    /** STT-style schemes. */
    static constexpr SecurityContract
    transmitterSafe()
    {
        return {ContractPolicy::TransmitterSafe, true, false, true};
    }

    /** NDA / full-delay schemes. */
    static constexpr SecurityContract
    consumeSafe()
    {
        return {ContractPolicy::ConsumeSafe, true, true, true};
    }

    /** Observational-only schemes (Delay-on-Miss). */
    static constexpr SecurityContract
    sandboxing()
    {
        return {ContractPolicy::Sandboxing, false, false, true};
    }
};

/** Stable lowercase policy name, used in JSON and CLI surfaces. */
inline const char *
contractPolicyName(ContractPolicy policy)
{
    switch (policy) {
      case ContractPolicy::None: return "none";
      case ContractPolicy::TransmitterSafe: return "transmitter-safe";
      case ContractPolicy::ConsumeSafe: return "consume-safe";
      case ContractPolicy::Sandboxing: return "sandboxing";
      case ContractPolicy::ConstantTime: return "constant-time";
    }
    return "none";
}

} // namespace sb

#endif // SB_CORE_SECURITY_CONTRACT_HH
