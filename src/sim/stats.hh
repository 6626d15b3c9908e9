/**
 * @file
 * Lightweight statistics collection.
 *
 * Hot paths increment plain integer members; at the end of a run each
 * component exports its counters into a StatSet (an ordered
 * name -> value map) which the harness aggregates and formats. This
 * keeps the per-access cost of statistics at a single increment.
 */

#ifndef CMPMEM_SIM_STATS_HH
#define CMPMEM_SIM_STATS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cmpmem
{

/**
 * One named counter of a stats struct. Each struct lists its counters
 * once as an array of these; the sandbox/journal codec, the per-core
 * sums and the artifact iterate that list, so a new counter is one
 * new entry.
 */
template <typename S, typename T = std::uint64_t>
struct Field
{
    const char *name;
    T S::*member;
};

/**
 * Whether @p fields names every member of @p S exactly once, for a
 * struct whose members are all of type @p T. For a static_assert
 * beside each such list.
 */
template <typename S, typename T, std::size_t N>
constexpr bool
coversEveryMember(const Field<S, T> (&fields)[N])
{
    for (std::size_t i = 0; i < N; ++i)
        for (std::size_t j = 0; j < i; ++j)
            if (fields[i].member == fields[j].member)
                return false;
    return sizeof(S) == N * sizeof(T);
}

/**
 * An ordered collection of named scalar statistics.
 *
 * Values are stored as doubles; integral counters fit exactly up to
 * 2^53, far beyond any counter in this simulator's runs.
 */
class StatSet
{
  public:
    /** Set (or overwrite) a statistic. */
    void set(const std::string &name, double value);

    /** @return the value, or @p dflt when absent. */
    double get(const std::string &name, double dflt = 0.0) const;

    bool has(const std::string &name) const;

    /** Names in insertion order. */
    const std::vector<std::string> &names() const { return order; }

    /** Render as aligned "name value" lines. */
    std::string format() const;

    /** Render as two CSV lines: header and values. */
    std::string toCsv() const;

    /**
     * Order-sensitive 64-bit FNV-1a digest over every (name, value)
     * pair, hashing the exact IEEE-754 bit pattern of each value —
     * two sets digest equal iff their names, insertion order, and
     * values are bit-identical. The compact currency of the baseline
     * gate (bench_compare) and the benchmark's expected digests:
     * "fnv1a:" followed by 16 hex digits.
     */
    std::string digest() const;

    void clear();

  private:
    std::map<std::string, double> values;
    std::vector<std::string> order;
};

} // namespace cmpmem

#endif // CMPMEM_SIM_STATS_HH
