// LLM serving demo (§5): drive the LightLLM-style serving stack (HTTP
// frontend -> router -> CPU backends with KV caches) across interleave
// placements and backend counts, and find the cheapest placement that meets
// a latency SLO at a target load.
#include <iostream>

#include "src/core/cxl_explorer.h"
#include "src/util/flags.h"

int main(int argc, char** argv) {
  cxl::ParseFlags(&argc, argv, {});
  using namespace cxl;
  using apps::llm::LlmPlacement;
  using apps::llm::ServingRequest;
  using apps::llm::ServingStack;
  using apps::llm::ServingStackConfig;

  const ServingRequest request{/*id=*/1, /*prompt_tokens=*/512, /*output_tokens=*/128};

  PrintSection(std::cout, "Serving-rate scaling: backends x placement (12 threads/backend)");
  const std::vector<LlmPlacement> placements = {
      LlmPlacement::MmemOnly(), LlmPlacement::Interleave(3, 1), LlmPlacement::Interleave(1, 1),
      LlmPlacement::Interleave(1, 3)};
  std::vector<std::string> cols = {"backends"};
  for (const auto& p : placements) {
    cols.push_back(p.label + " tok/s");
  }
  Table scale(cols);
  for (int backends = 1; backends <= 7; ++backends) {
    scale.Row().Cell(static_cast<uint64_t>(backends));
    for (const auto& p : placements) {
      ServingStackConfig cfg;
      cfg.backends = backends;
      cfg.placement = p;
      scale.Cell(ServingStack(cfg).SteadyState(request).tokens_per_second, 1);
    }
  }
  scale.Print(std::cout);

  PrintSection(std::cout, "Request-level view: 5 backends, 500 requests, per-placement");
  Table reqs({"placement", "req/s", "mean decode s", "p99 latency s", "KV cache MB/backend"});
  for (const auto& p : placements) {
    ServingStackConfig cfg;
    cfg.backends = 5;
    cfg.placement = p;
    ServingStack stack(cfg);
    Histogram latency(1e-3, 1e5, 64);
    const auto stats = stack.Drive(request, 500, &latency);
    reqs.Row()
        .Cell(p.label)
        .Cell(stats.requests_per_second, 2)
        .Cell(stats.mean_request_seconds, 2)
        .Cell(latency.p99(), 2)
        .Cell(stats.kv_cache_bytes_per_backend / 1e6, 1);
  }
  reqs.Print(std::cout);

  PrintSection(std::cout, "Placement picker: best placement per backend count");
  Table pick({"backends", "best placement", "tok/s", "vs MMEM-only"});
  for (int backends : {2, 4, 5, 6, 7}) {
    double best = 0.0;
    double mmem = 0.0;
    std::string best_label;
    for (const auto& p : placements) {
      ServingStackConfig cfg;
      cfg.backends = backends;
      cfg.placement = p;
      const double tps = ServingStack(cfg).SteadyState(request).tokens_per_second;
      if (p.mmem_share == 1.0) {
        mmem = tps;
      }
      if (tps > best) {
        best = tps;
        best_label = p.label;
      }
    }
    pick.Row()
        .Cell(static_cast<uint64_t>(backends))
        .Cell(best_label)
        .Cell(best, 1)
        .Cell(FormatDouble(100.0 * (best / mmem - 1.0), 1) + "%");
  }
  pick.Print(std::cout);
  std::cout << "Reading: MMEM-only wins while the DDR channels have headroom; interleaving\n"
               "wins once they saturate (~4 backends = 48 threads, §5.2).\n";
  return 0;
}
