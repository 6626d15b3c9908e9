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

void
LocalStore::read(std::uint32_t offset, void *dst, std::size_t n) const
{
    checkRange(offset, n);
    std::memcpy(dst, bytes.data() + offset, n);
}

void
LocalStore::write(std::uint32_t offset, const void *src, std::size_t n)
{
    checkRange(offset, n);
    std::memcpy(bytes.data() + offset, src, n);
}

} // namespace cmpmem
