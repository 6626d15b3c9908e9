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

    /** Raw byte access (bounds-checked; overruns are workload bugs). */
    void read(std::uint32_t offset, void *dst, std::size_t n) const;
    void write(std::uint32_t offset, const void *src, std::size_t n);

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

    /** Direct pointers for the DMA engine's bulk copies. */
    std::uint8_t *data() { return bytes.data(); }
    const std::uint8_t *data() const { return bytes.data(); }

    //
    // FIFO access mode. Table 2's local store "provides hardware
    // support for FIFO accesses"; the paper's applications did not
    // use it, but the capability is part of the modelled hardware.
    // A FIFO is a circular channel over a region of the store.
    //

    /** Configure FIFO @p id over [base, base+bytes). */
    void fifoConfig(int id, std::uint32_t base, std::uint32_t bytes);

    /** Elements currently queued in FIFO @p id (in bytes). */
    std::uint32_t fifoDepth(int id) const;

    /** Push @p n bytes; @return false when the FIFO is full. */
    bool fifoPush(int id, const void *src, std::uint32_t n);

    /** Pop @p n bytes; @return false when underflowing. */
    bool fifoPop(int id, void *dst, std::uint32_t n);

  private:
    struct Fifo
    {
        std::uint32_t base = 0;
        std::uint32_t size = 0;
        std::uint32_t head = 0; ///< pop cursor (offset in region)
        std::uint32_t depth = 0;
    };

    static constexpr int maxFifos = 4;

    const Fifo &fifoAt(int id) const;
    Fifo &fifoAt(int id);

    void
    checkRange(std::uint32_t offset, std::size_t n) const
    {
        if (std::uint64_t(offset) + n > bytes.size())
            throwOutOfRange(offset, n);
    }

    [[noreturn]] void throwOutOfRange(std::uint32_t offset,
                                      std::size_t n) const;

    std::vector<std::uint8_t> bytes;
    Fifo fifos[maxFifos];
};

} // namespace cmpmem

#endif // CMPMEM_STREAM_LOCAL_STORE_HH
