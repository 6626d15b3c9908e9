#include "core/icache_model.hh"

namespace cmpmem
{

ICacheModel::ICacheModel(const ICacheConfig &config) : cfg(config) {}

Tick
ICacheModel::takeMisses()
{
    auto misses = static_cast<std::uint64_t>(missCredit);
    missCredit -= double(misses);
    numMisses += misses;
    return Tick(misses) * cfg.missLatency;
}

} // namespace cmpmem
