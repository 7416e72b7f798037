/**
 * @file
 * Multi-tenant experiment tier.
 *
 * Wraps the server-mix workload (trace/server_mix.hh) as ordinary
 * RunSpec cells — workload strings of the form
 * "mt:tenants=4:requests=24:work=24:hostile=1:seed=7" — so
 * multi-tenant runs flow through the ExperimentEngine's dedup and
 * content-addressed result cache like every other cell. A cell's
 * RunOutcome carries the service-quality profile (throughput and
 * p50/p95/p99 tail latency in cycles, sampled per request off the
 * commit stream) and the cross-tenant leakage verdict from the
 * contract shadow engine, so the "multi_tenant" scenario can report
 * what each secure-speculation scheme costs a consolidated
 * request-serving core — and which ones actually stop the hostile
 * tenant.
 */

#ifndef SB_HARNESS_TENANT_HH
#define SB_HARNESS_TENANT_HH

#include <string>

#include "harness/experiment.hh"
#include "trace/server_mix.hh"

namespace sb
{

class ScenarioRegistry;

/**
 * Workload-name encoding of one server-mix run. RunSpec::specKey()
 * hashes the workload string, so every generator parameter is part of
 * the cell's cache address.
 */
std::string tenantWorkloadName(const ServerMixParams &p);

/** Is @p workload a multi-tenant server-mix cell? */
bool isTenantWorkload(const std::string &workload);

/** Decode a tenantWorkloadName(); false, with @p out untouched, on
 *  any other spelling (common/workload_name.hh) or on fields
 *  buildServerMix() rejects. */
bool parseTenantWorkload(const std::string &workload,
                         ServerMixParams &out);

/** Register the "multi_tenant" scenario (schemes x switch policies
 *  over the hostile server mix) into @p registry. */
void registerTenantScenarios(ScenarioRegistry &registry);

} // namespace sb

#endif // SB_HARNESS_TENANT_HH
