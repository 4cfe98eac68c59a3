#include "descend/multi/multi_query.h"

#include <unordered_map>

#include "descend/util/errors.h"

namespace descend::multi {

MultiQuery MultiQuery::compile(const std::vector<query::Query>& queries)
{
    if (queries.empty()) {
        throw LimitError("a multi-query set needs at least one query");
    }
    MultiQuery set;
    set.shared_ = automaton::Alphabet::from_queries(queries);
    set.input_to_distinct_.reserve(queries.size());
    set.all_root_accepting_ = true;
    // Canonical rendering -> distinct slot: `$.a` and `$['a']` parse to the
    // same selectors and must share one subscriber slot.
    std::unordered_map<std::string, std::size_t> canonical_ids;
    for (std::size_t input = 0; input < queries.size(); ++input) {
        const query::Query& query = queries[input];
        auto [found, inserted] =
            canonical_ids.emplace(query.to_string(), set.distinct_.size());
        if (!inserted) {
            set.input_to_distinct_.push_back(found->second);
            set.owners_[found->second].push_back(input);
            continue;
        }
        automaton::CompiledQuery compiled = automaton::CompiledQuery::compile(query);
        set.all_root_accepting_ =
            set.all_root_accepting_ && compiled.root_accepting();

        set.input_to_distinct_.push_back(set.distinct_.size());
        set.owners_.push_back({input});
        set.distinct_.push_back(std::move(compiled));
    }
    return set;
}

MultiQuery MultiQuery::compile(const std::vector<std::string>& query_texts)
{
    std::vector<query::Query> queries;
    queries.reserve(query_texts.size());
    for (const std::string& text : query_texts) {
        queries.push_back(query::Query::parse(text));
    }
    return compile(queries);
}

}  // namespace descend::multi
