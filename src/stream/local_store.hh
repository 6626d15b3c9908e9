/**
 * @file
 * Per-core software-managed local store (scratch-pad) for the
 * streaming memory model.
 *
 * The 24 KB local store "is indexed as a random access memory" and,
 * unlike a cache, has no tag or control-bit overhead — which is why
 * its per-access energy is lower (see energy_params.cc). It is
 * private to its core, so it carries real data (unlike the caches,
 * which are timing metadata over the shared FunctionalMemory).
 */

#ifndef CMPMEM_STREAM_LOCAL_STORE_HH
#define CMPMEM_STREAM_LOCAL_STORE_HH

#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "sim/types.hh"

namespace cmpmem
{

class LocalStore
{
  public:
    explicit LocalStore(std::uint32_t size_bytes = 24 * 1024);

    std::uint32_t size() const { return std::uint32_t(bytes.size()); }

    /**
     * The @p n bytes from @p offset, for the DMA engine's bulk
     * copies. Bounds-checked like every access: an overrun is a
     * workload bug, raised as SimErrorKind::Model.
     */
    std::span<std::uint8_t>
    span(std::uint32_t offset, std::size_t n)
    {
        checkRange(offset, n);
        return {bytes.data() + offset, n};
    }

    /**
     * Scalar access, one per lsRead/lsWrite: the bounds check and the
     * fixed-size copy stay inline. (The core counts the accesses.)
     */
    template <typename T>
    T
    read(std::uint32_t offset) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        checkRange(offset, sizeof(T));
        T v;
        std::memcpy(&v, bytes.data() + offset, sizeof(T));
        return v;
    }

    template <typename T>
    void
    write(std::uint32_t offset, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        checkRange(offset, sizeof(T));
        std::memcpy(bytes.data() + offset, &v, sizeof(T));
    }

  private:
    void
    checkRange(std::uint32_t offset, std::size_t n) const
    {
        if (std::uint64_t(offset) + n > bytes.size())
            throwOutOfRange(offset, n);
    }

    [[noreturn]] void throwOutOfRange(std::uint32_t offset,
                                      std::size_t n) const;

    std::vector<std::uint8_t> bytes;
};

} // namespace cmpmem

#endif // CMPMEM_STREAM_LOCAL_STORE_HH
