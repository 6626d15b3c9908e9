#include "stream/local_store.hh"

#include "sim/sim_error.hh"

namespace cmpmem
{

LocalStore::LocalStore(std::uint32_t size_bytes)
    : bytes(size_bytes, 0)
{
}

void
LocalStore::throwOutOfRange(std::uint32_t offset, std::size_t n) const
{
    throwSimError(SimErrorKind::Model,
                  "local store access out of range: offset=%u "
                  "size=%zu capacity=%zu",
                  offset, n, bytes.size());
}

} // namespace cmpmem
