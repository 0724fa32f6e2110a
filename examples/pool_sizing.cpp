// Pool sizing (§7.1 extension): size a CXL 2.0 memory pool for a rack of
// hosts, check the lease mechanics against a bursty demand replay, and fold
// the capacity saving into the cost model.
//
// Usage: ./build/examples/pool_sizing [hosts mean_gib cv]
#include <iostream>

#include "src/bench/context.h"
#include "src/core/cxl_explorer.h"
#include "src/pool/memory_pool.h"

int main(int argc, char** argv) {
  using namespace cxl;

  pool::PoolingEconomicsConfig econ_cfg;
  const bool parsed = argc == 1 || (argc == 4 && bench::ParseNumber(argv[1], &econ_cfg.hosts) &&
                                    bench::ParseNumber(argv[2], &econ_cfg.mean_demand_gib) &&
                                    bench::ParseNumber(argv[3], &econ_cfg.demand_cv));
  if (!parsed) {
    std::cerr << "usage: " << argv[0] << " [hosts mean_gib cv]\n";
    return 2;
  }
  if (econ_cfg.hosts < 1 || econ_cfg.hosts > 16) {
    std::cerr << "CXL 2.0 supports 1-16 hosts per pooled device\n";
    return 2;
  }

  PrintSection(std::cout, "Sizing");
  const auto econ = pool::EstimatePoolingEconomics(econ_cfg);
  Table sizing({"quantity", "value"});
  sizing.Row().Cell("hosts").Cell(static_cast<uint64_t>(econ_cfg.hosts));
  sizing.Row().Cell("mean demand / host (GiB)").Cell(econ_cfg.mean_demand_gib, 1);
  sizing.Row().Cell("stand-alone p99 provision / host (GiB)").Cell(econ.per_host_provision_gib, 1);
  sizing.Row().Cell("pooled p99 provision, total (GiB)").Cell(econ.pooled_provision_gib, 1);
  sizing.Row().Cell("capacity saving %").Cell(100.0 * econ.capacity_saving, 1);
  sizing.Print(std::cout);

  // Validate the sizing against lease churn at the recommended capacity.
  PrintSection(std::cout, "Lease-churn validation at the recommended pool size");
  pool::PoolConfig pcfg;
  pcfg.capacity_bytes = static_cast<uint64_t>(econ.pooled_provision_gib) << 30;
  pcfg.max_hosts = 16;
  pool::CxlMemoryPool mem_pool(pcfg);
  pool::PoolChurnConfig churn_cfg;
  churn_cfg.hosts = econ_cfg.hosts;
  churn_cfg.mean_demand_gib = econ_cfg.mean_demand_gib;
  churn_cfg.demand_cv = econ_cfg.demand_cv;
  churn_cfg.steps = 20'000;
  const auto churn_result = pool::SimulatePoolChurn(mem_pool, churn_cfg);
  Table churn({"metric", "value"});
  churn.Row().Cell("mean utilization").Cell(churn_result.mean_utilization, 3);
  churn.Row().Cell("denied grow-requests %").Cell(100.0 * churn_result.denial_rate, 2);
  churn.Print(std::cout);
  std::cout << "A denial means a host briefly runs at its previous lease — the p99 sizing\n"
               "keeps that rare; resize upward if the denial rate matters for your SLO.\n";

  PrintSection(std::cout, "Performance cost of pooling (switch hop)");
  const mem::AccessMix read = mem::AccessMix::ReadOnly();
  std::cout << "direct CXL: " << FormatDouble(
                   mem::GetProfile(mem::MemoryPath::kLocalCxl).IdleLatencyNs(read), 1)
            << " ns, pooled CXL: "
            << FormatDouble(pool::PooledCxlProfile().IdleLatencyNs(read), 1)
            << " ns (+2x" << FormatDouble(pool::kCxlSwitchHopNs, 0) << " ns switch hops)\n";
  return 0;
}
