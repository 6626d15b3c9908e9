/**
 * @file
 * Energy accounting: turns the counters of a RunStats into the
 * per-component breakdown of the paper's Figure 4 (core, I-cache,
 * D-cache/local memory, network, L2, DRAM), including both dynamic
 * and static (leakage) energy, with clock gating on idle cores.
 */

#ifndef CMPMEM_ENERGY_ENERGY_MODEL_HH
#define CMPMEM_ENERGY_ENERGY_MODEL_HH

#include <string>

#include "energy/energy_params.hh"
#include "sim/stats.hh"

namespace cmpmem
{

struct RunStats;

/** Per-component energy in millijoules. */
struct EnergyBreakdown
{
    double coreMj = 0;
    double icacheMj = 0;
    double dstoreMj = 0; ///< D-caches (CC) or local stores + 8 KB caches
    double networkMj = 0;
    double l2Mj = 0;
    double dramMj = 0;

    double
    totalMj() const
    {
        return coreMj + icacheMj + dstoreMj + networkMj + l2Mj + dramMj;
    }

    std::string format() const;
};

inline constexpr Field<EnergyBreakdown, double> kEnergyFields[] = {
    {"core_mj", &EnergyBreakdown::coreMj},
    {"icache_mj", &EnergyBreakdown::icacheMj},
    {"dstore_mj", &EnergyBreakdown::dstoreMj},
    {"network_mj", &EnergyBreakdown::networkMj},
    {"l2_mj", &EnergyBreakdown::l2Mj},
    {"dram_mj", &EnergyBreakdown::dramMj},
};
static_assert(coversEveryMember(kEnergyFields));

class EnergyModel
{
  public:
    explicit EnergyModel(const EnergyParams &params) : p(params) {}

    /** Compute the full breakdown for a finished run. */
    EnergyBreakdown compute(const RunStats &rs) const;

  private:
    EnergyParams p;
};

} // namespace cmpmem

#endif // CMPMEM_ENERGY_ENERGY_MODEL_HH
