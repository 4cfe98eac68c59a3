/**
 * @file
 * A compiled JSONPath query *set* for fused single-pass execution.
 *
 * The set shares one union Alphabet (Alphabet::from_queries) across every
 * label and index the queries mention; QuerySetCompiler (product_query.h)
 * lowers the set to one product automaton over it. Each distinct query
 * also keeps its own minimal CompiledQuery: it carries the query's filter
 * predicate and index flag, and compiling it checks the query against the
 * single-query limits.
 *
 * Duplicate queries are deduplicated at compile time: every input query is
 * canonicalized (parse → Query::to_string, so `$.a` and `$['a']` coincide)
 * and identical queries share one *distinct* slot. The engine runs distinct
 * queries only and fans results out to the owning input indices on report,
 * so a 100×-duplicated subscription costs one subscriber, not a hundred.
 * The input indexing (size(), distinct_index(i)) is preserved —
 * duplicates resolve to their shared distinct slot.
 */
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "descend/automaton/compiled.h"
#include "descend/query/query.h"

namespace descend::multi {

class MultiQuery {
public:
    /** Compiles a parsed query set. @throws QueryError / LimitError as the
     *  single-query compiler does; an empty set is a LimitError. */
    static MultiQuery compile(const std::vector<query::Query>& queries);

    /** Convenience: parse + compile each text. */
    static MultiQuery compile(const std::vector<std::string>& query_texts);

    /** Number of *input* queries (duplicates included). */
    std::size_t size() const noexcept { return input_to_distinct_.size(); }

    /** Number of distinct canonical queries actually compiled. */
    std::size_t num_distinct() const noexcept { return distinct_.size(); }

    const automaton::Alphabet& alphabet() const noexcept { return shared_; }

    /** The compiled automaton of distinct query @p d. */
    const automaton::CompiledQuery& distinct(std::size_t d) const
    {
        return distinct_[d];
    }

    /** Input indices owning distinct query @p d, ascending. */
    const std::vector<std::size_t>& owners(std::size_t d) const
    {
        return owners_[d];
    }

    /** Distinct index of input query @p i. */
    std::size_t distinct_index(std::size_t i) const
    {
        return input_to_distinct_[i];
    }

    /** True when every query is exactly `$`. */
    bool all_root_accepting() const noexcept { return all_root_accepting_; }

private:
    MultiQuery() = default;

    automaton::Alphabet shared_;
    /** Distinct compiled automata, in first-occurrence order. */
    std::vector<automaton::CompiledQuery> distinct_;
    /** distinct -> owning input indices (ascending). */
    std::vector<std::vector<std::size_t>> owners_;
    /** input -> distinct. */
    std::vector<std::size_t> input_to_distinct_;
    bool all_root_accepting_ = false;
};

}  // namespace descend::multi
