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

const LocalStore::Fifo &
LocalStore::fifoAt(int id) const
{
    if (id < 0 || id >= maxFifos)
        throwSimError(SimErrorKind::Model,
                      "local store FIFO id %d out of range", id);
    return fifos[id];
}

LocalStore::Fifo &
LocalStore::fifoAt(int id)
{
    return const_cast<Fifo &>(
        static_cast<const LocalStore *>(this)->fifoAt(id));
}

void
LocalStore::fifoConfig(int id, std::uint32_t base, std::uint32_t n)
{
    checkRange(base, n);
    if (n == 0)
        throwSimError(SimErrorKind::Model,
                      "local store FIFO must cover a non-empty region");
    fifoAt(id) = Fifo{base, n, 0, 0};
}

std::uint32_t
LocalStore::fifoDepth(int id) const
{
    return fifoAt(id).depth;
}

bool
LocalStore::fifoPush(int id, const void *src, std::uint32_t n)
{
    Fifo &f = fifoAt(id);
    if (f.depth + n > f.size)
        return false;
    const auto *in = static_cast<const std::uint8_t *>(src);
    std::uint32_t tail = (f.head + f.depth) % f.size;
    for (std::uint32_t i = 0; i < n; ++i)
        bytes[f.base + (tail + i) % f.size] = in[i];
    f.depth += n;
    return true;
}

bool
LocalStore::fifoPop(int id, void *dst, std::uint32_t n)
{
    Fifo &f = fifoAt(id);
    if (f.depth < n)
        return false;
    auto *out = static_cast<std::uint8_t *>(dst);
    for (std::uint32_t i = 0; i < n; ++i)
        out[i] = bytes[f.base + (f.head + i) % f.size];
    f.head = (f.head + n) % f.size;
    f.depth -= n;
    return true;
}

} // namespace cmpmem
