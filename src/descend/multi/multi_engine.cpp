#include "descend/multi/multi_engine.h"

#include <memory>

#include "descend/engine/simulation.h"
#include "descend/project/filter_eval.h"
#include "descend/util/bit_stack.h"
#include "descend/util/inline_vector.h"

namespace descend::multi {
namespace {

/**
 * One query's independent simulation riding the shared event stream: its
 * automaton, the shared-to-private symbol remap, and the mutable
 * depth-stack state. Depth itself, the kind bit-stack and the array-entry
 * counters are shared across lanes (they describe the document, not the
 * query).
 */
struct Lane {
    const automaton::CompiledQuery* cq;
    int other;      ///< private OTHER symbol
    bool counting;  ///< query uses index selectors
    int state = 0;
    DepthStack stack;
    std::size_t matches = 0;
};

/**
 * The fused main algorithm: the shared Simulation of engine/simulation.h
 * with the per-state work vectorized over lanes and every skip decision
 * replaced by the lane consensus described in multi_engine.h.
 */
class FusedSimulation {
public:
    /** @param budget the run's governance (null when inactive); threaded
     *  into every block stream the simulation constructs. */
    FusedSimulation(const MultiQuery& queries, const EngineOptions& options,
                    MultiSink& sink, RunStats& stats, PaddedView document,
                    const simd::Kernels& kernels,
                    const RunBudget* budget = nullptr)
        : queries_(queries),
          options_(options),
          sink_(sink),
          stats_(stats),
          budget_(budget)
    {
        // One lane per DISTINCT query: duplicates share the simulation and
        // fan out to their owners at report time. A lane with a trailing
        // filter gets a private predicate gate — candidates the automaton
        // surfaces for THAT lane are gated without disturbing the others.
        lanes_.reserve(queries.num_distinct());
        gates_.resize(queries.num_distinct());
        for (std::size_t d = 0; d < queries.num_distinct(); ++d) {
            const automaton::CompiledQuery& cq = queries.distinct(d);
            Lane lane;
            lane.cq = &cq;
            lane.other = cq.alphabet().other_symbol();
            lane.counting = cq.has_indices();
            lanes_.push_back(std::move(lane));
            if (const query::FilterExpr* filter = cq.filter()) {
                gates_[d] = std::make_unique<project::FilterGate>(
                    *filter, document, kernels, &stats.counters);
            }
        }
        targets_.resize(lanes_.size());
    }

    const EngineStatus& status() const noexcept { return status_; }

    /** Fused equivalent of Simulation::run_main_loop: every lane restarts
     *  at its initial state; the loop ends when the enclosing element
     *  closes or input ends. */
    void run_main_loop(StructuralIterator& iter, bool at_document_root)
    {
        using Kind = StructuralIterator::Kind;
        const automaton::Alphabet& shared = queries_.alphabet();
        const std::size_t n = lanes_.size();

        for (Lane& lane : lanes_) {
            lane.state = lane.cq->initial_state();
            lane.stack.clear();
        }
        int depth = 0;
        BitStack kinds;
        InlineVector<std::uint64_t, 64> counts;
        const bool counting = queries_.any_counting();

        if (at_document_root) {
            // Root-accepting lanes (`$`) select the whole document; the
            // root opening event fires no transition for them (and atomic
            // roots produce no event at all), so they report up front —
            // at the offset the standalone `$` fast path reports.
            std::size_t start = iter.first_non_ws(0);
            if (start < iter.size()) {
                for (std::size_t i = 0; i < n; ++i) {
                    if (lanes_[i].cq->root_accepting()) {
                        report(i, start);
                    }
                }
            }
        }

        if (!options_.leaf_skipping) {
            iter.set_commas(true);
            iter.set_colons(true);
        }
        // Leaf skipping by consensus: commas/colons stay enabled while ANY
        // lane's current state could accept through them in one step.
        auto toggle = [&](bool is_object) {
            if (!options_.leaf_skipping) {
                return;
            }
            bool colon = false;
            bool comma = false;
            for (const Lane& lane : lanes_) {
                const automaton::StateFlags& flags = lane.cq->flags(lane.state);
                colon = colon || flags.colon_toggle;
                comma = comma || flags.comma_toggle;
            }
            iter.set_colons(is_object && colon);
            iter.set_commas(!is_object && (comma || counting),
                            /*eager_disable=*/counting);
        };

        // The symbol of the current array entry in lane i's private
        // alphabet (index lookups bypass the shared remap: per-lane index
        // lists are tiny and typically empty).
        auto entry_symbol = [&](const Lane& lane, std::uint64_t entry_index) {
            return lane.counting ? lane.cq->alphabet().index_symbol(entry_index)
                                 : lane.other;
        };

        // Fused §4.5 within-element skip: sound only when EVERY lane is
        // waiting, non-accepting, on the SAME label — skipped events must
        // be invisible to all of them. Disagreement suppresses the skip.
        auto within_skip = [&](int& current_depth, BitStack& current_kinds) {
            if (counting) {
                return;  // entry counters would miss the skipped commas
            }
            const std::string* label = nullptr;
            bool any_waiting = false;
            bool all_agree = true;
            for (const Lane& lane : lanes_) {
                int symbol = lane.cq->waiting_symbol(lane.state);
                bool wants = symbol >= 0 && !lane.cq->flags(lane.state).accepting;
                any_waiting = any_waiting || wants;
                if (!wants) {
                    all_agree = false;
                    continue;
                }
                const std::string& own = lane.cq->alphabet().label(symbol);
                if (label == nullptr) {
                    label = &own;
                } else if (*label != own) {
                    all_agree = false;
                }
            }
            if (!all_agree || label == nullptr) {
                if (any_waiting) {
                    stats_.counters.add(obs::Counter::kFusedWithinSkipSuppressed);
                }
                return;
            }
            // Per lane: does an atom carrying the label accept?
            for (std::size_t i = 0; i < n; ++i) {
                const Lane& lane = lanes_[i];
                int symbol = lane.cq->waiting_symbol(lane.state);
                targets_[i] =
                    lane.cq->flags(lane.cq->transition(lane.state, symbol))
                            .accepting
                        ? 1
                        : 0;
            }
            BitStack opened;
            int relative_depth = 1;
            while (true) {
                StructuralIterator::WithinResult found =
                    iter.skip_to_label_within(
                        *label, opened, relative_depth,
                        static_cast<std::size_t>(current_depth) - 1);
                stats_.counters.add(obs::Counter::kWithinSkips);
                if (found.outcome !=
                    StructuralIterator::WithinResult::Outcome::kFoundLabel) {
                    return;
                }
                std::uint8_t first = found.value_pos < iter.size()
                                         ? iter.data()[found.value_pos]
                                         : 0;
                if (first == classify::kOpenBrace ||
                    first == classify::kOpenBracket) {
                    for (std::size_t i = 0; i < opened.size(); ++i) {
                        current_kinds.push(opened.bit_at(i));
                    }
                    current_depth += static_cast<int>(opened.size());
                    if (static_cast<std::size_t>(current_depth) >
                        options_.limits.max_depth) {
                        fail(StatusCode::kDepthLimit, found.value_pos);
                    }
                    return;
                }
                for (std::size_t i = 0; i < n; ++i) {
                    if (targets_[i] != 0) {
                        report(i, found.value_pos);
                        if (!status_.ok()) {
                            return;
                        }
                    }
                }
            }
        };

        // First item of an array: not preceded by a comma, so accepting
        // atom entries are matched here (per lane).
        auto try_match_first_item = [&](std::size_t open_pos) {
            bool any = false;
            for (std::size_t i = 0; i < n; ++i) {
                Lane& lane = lanes_[i];
                int target =
                    lane.cq->transition(lane.state, entry_symbol(lane, 0));
                targets_[i] = lane.cq->flags(target).accepting ? 1 : 0;
                any = any || targets_[i] != 0;
            }
            if (!any) {
                return;
            }
            StructuralIterator::Event following = iter.peek();
            if (following.kind == Kind::kOpening) {
                return;  // handled by the Opening case
            }
            std::size_t item = iter.first_non_ws(open_pos + 1);
            if (item >= following.pos) {
                return;  // empty array
            }
            for (std::size_t i = 0; i < n; ++i) {
                if (targets_[i] != 0) {
                    report(i, item);
                }
            }
        };

        while (status_.ok()) {
            StructuralIterator::Event event = iter.next();
            if (event.kind == Kind::kNone) {
                if (!iter.status().ok()) {
                    fail(iter.status().code, iter.status().offset);
                } else if (depth > 0) {
                    fail(StatusCode::kUnbalancedStructure, iter.size());
                }
                return;
            }
            stats_.counters.add(obs::Counter::kStructuralEvents);
            switch (event.kind) {
                case Kind::kOpening: {
                    stats_.counters.add(obs::Counter::kOpeningEvents);
                    bool is_object = event.byte == classify::kOpenBrace;
                    bool root_opening = depth == 0 && at_document_root;
                    if (static_cast<std::size_t>(depth) >=
                        options_.limits.max_depth) {
                        fail(StatusCode::kDepthLimit, event.pos);
                        return;
                    }
                    if (!root_opening) {
                        // One label scan against the SHARED alphabet;
                        // lanes remap the result in O(1).
                        std::optional<int> shared_symbol = label_symbol_before(
                            iter, shared, event.pos, status_);
                        if (!status_.ok()) {
                            return;
                        }
                        std::uint64_t entry_index =
                            counting && !counts.empty() ? counts.back() : 0;
                        bool all_rejecting = true;
                        bool any_rejecting = false;
                        for (std::size_t i = 0; i < n; ++i) {
                            Lane& lane = lanes_[i];
                            int symbol = shared_symbol.has_value()
                                             ? queries_.remap_distinct(i, *shared_symbol)
                                             : entry_symbol(lane, entry_index);
                            int target = lane.cq->transition(lane.state, symbol);
                            targets_[i] = target;
                            bool rejecting = lane.cq->flags(target).rejecting;
                            all_rejecting = all_rejecting && rejecting;
                            any_rejecting = any_rejecting || rejecting;
                        }
                        if (options_.child_skipping) {
                            if (all_rejecting) {
                                // Consensus: nothing below can match any
                                // lane — one fast-forward serves all N.
                                stats_.counters.add(obs::Counter::kChildSkips);
                                iter.skip_element(
                                    event.byte, static_cast<std::size_t>(depth));
                                continue;
                            }
                            if (any_rejecting) {
                                // A lane wanted the skip but a live lane
                                // vetoed: descend structurally; the trash
                                // lanes ride along inertly.
                                stats_.counters.add(
                                    obs::Counter::kFusedChildSkipSuppressed);
                            }
                        }
                        for (std::size_t i = 0; i < n; ++i) {
                            Lane& lane = lanes_[i];
                            int target = targets_[i];
                            if (target != lane.state) {
                                if (lane.cq->row_class(target) !=
                                    lane.cq->row_class(lane.state)) {
                                    lane.stack.push_back({lane.state, depth});
                                    stats_.counters.add(
                                        obs::Counter::kDepthStackPushes);
                                    stats_.counters.raise(
                                        obs::Counter::kDepthStackMax,
                                        lane.stack.size());
                                }
                                lane.state = target;
                            }
                        }
                    }
                    ++depth;
                    kinds.push(is_object);
                    if (counting && !is_object) {
                        counts.push_back(0);
                    }
                    for (std::size_t i = 0; i < n; ++i) {
                        Lane& lane = lanes_[i];
                        // Root-accepting lanes were pre-reported above.
                        if (lane.cq->flags(lane.state).accepting &&
                            !(root_opening && lane.cq->root_accepting())) {
                            report(i, event.pos);
                        }
                    }
                    toggle(is_object);
                    if (!is_object) {
                        try_match_first_item(event.pos);
                    }
                    if (options_.label_within_skipping) {
                        within_skip(depth, kinds);
                    }
                    break;
                }
                case Kind::kClosing: {
                    if (depth == 0) {
                        fail(StatusCode::kUnbalancedStructure, event.pos);
                        return;
                    }
                    bool closed_is_object = kinds.top();
                    if (closed_is_object !=
                        (event.byte == classify::kCloseBrace)) {
                        fail(StatusCode::kUnbalancedStructure, event.pos);
                        return;
                    }
                    --depth;
                    kinds.pop();
                    if (counting && !closed_is_object) {
                        counts.pop_back();
                    }
                    if (depth == 0) {
                        return;
                    }
                    bool any_wants_skip = false;
                    bool all_agree = true;
                    for (Lane& lane : lanes_) {
                        bool skippable = false;
                        if (!lane.stack.empty() &&
                            lane.stack.back().depth == depth) {
                            bool child_advanced =
                                !lane.cq->flags(lane.state).rejecting;
                            lane.state = lane.stack.back().state;
                            lane.stack.pop_back();
                            if (child_advanced &&
                                lane.cq->flags(lane.state).unitary) {
                                // This lane's unique live label was just
                                // consumed: its parent holds no more.
                                skippable = true;
                                any_wants_skip = true;
                            }
                        }
                        // A trash lane sees nothing in the siblings (its
                        // transitions loop in place and push no frames).
                        skippable =
                            skippable || lane.cq->flags(lane.state).rejecting;
                        all_agree = all_agree && skippable;
                    }
                    if (options_.sibling_skipping && any_wants_skip) {
                        if (all_agree) {
                            stats_.counters.add(obs::Counter::kSiblingSkips);
                            iter.skip_to_parent_close(
                                kinds.top(),
                                static_cast<std::size_t>(depth) - 1);
                            continue;
                        }
                        stats_.counters.add(
                            obs::Counter::kFusedSiblingSkipSuppressed);
                    }
                    toggle(kinds.top());
                    if (options_.label_within_skipping) {
                        within_skip(depth, kinds);
                    }
                    break;
                }
                case Kind::kColon: {
                    // An object member with an atomic value (container
                    // values are owned by the Opening case).
                    if (kinds.empty() || iter.peek().kind == Kind::kOpening) {
                        break;
                    }
                    std::optional<int> shared_symbol =
                        label_symbol_before(iter, shared, event.pos, status_);
                    if (!status_.ok()) {
                        return;
                    }
                    bool any_wants_skip = false;
                    bool all_agree = true;
                    bool any_accepting = false;
                    for (std::size_t i = 0; i < n; ++i) {
                        const Lane& lane = lanes_[i];
                        int symbol = shared_symbol.has_value()
                                         ? queries_.remap_distinct(i, *shared_symbol)
                                         : lane.other;
                        bool accepting =
                            lane.cq
                                ->flags(lane.cq->transition(lane.state, symbol))
                                .accepting;
                        targets_[i] = accepting ? 1 : 0;
                        any_accepting = any_accepting || accepting;
                        bool skippable =
                            (accepting && lane.cq->flags(lane.state).unitary) ||
                            lane.cq->flags(lane.state).rejecting;
                        any_wants_skip =
                            any_wants_skip ||
                            (accepting && lane.cq->flags(lane.state).unitary);
                        all_agree = all_agree && skippable;
                    }
                    if (any_accepting) {
                        std::size_t value = iter.first_non_ws(event.pos + 1);
                        for (std::size_t i = 0; i < n; ++i) {
                            if (targets_[i] != 0) {
                                report(i, value);
                            }
                        }
                        if (!status_.ok()) {
                            return;
                        }
                    }
                    if (options_.sibling_skipping && any_wants_skip) {
                        if (all_agree) {
                            stats_.counters.add(obs::Counter::kSiblingSkips);
                            iter.skip_to_parent_close(
                                kinds.top(),
                                static_cast<std::size_t>(depth) - 1);
                        } else {
                            stats_.counters.add(
                                obs::Counter::kFusedSiblingSkipSuppressed);
                        }
                    }
                    break;
                }
                case Kind::kComma: {
                    if (kinds.empty() || kinds.top()) {
                        break;  // object member separator (or malformed)
                    }
                    if (counting) {
                        ++counts.back();
                    }
                    StructuralIterator::Event following = iter.peek();
                    if (following.kind == Kind::kOpening ||
                        following.kind == Kind::kNone) {
                        break;
                    }
                    bool any = false;
                    for (std::size_t i = 0; i < n; ++i) {
                        Lane& lane = lanes_[i];
                        int target = lane.cq->transition(
                            lane.state,
                            entry_symbol(lane, counting ? counts.back() : 0));
                        targets_[i] = lane.cq->flags(target).accepting ? 1 : 0;
                        any = any || targets_[i] != 0;
                    }
                    if (any) {
                        std::size_t value = iter.first_non_ws(event.pos + 1);
                        for (std::size_t i = 0; i < n; ++i) {
                            if (targets_[i] != 0) {
                                report(i, value);
                            }
                        }
                    }
                    break;
                }
                case Kind::kNone:
                    return;
            }
        }
    }

    /** Fused head-skip: only reachable when every lane waits on the same
     *  head label (MultiQuery::common_head_skip_label), so one label
     *  search drives all N subruns. */
    void run_head_skip(PaddedView document, const simd::Kernels& kernels,
                       StructuralValidator* validator,
                       obs::BlockAccountant* accountant)
    {
        const std::string& label = *queries_.common_head_skip_label();
        const std::size_t n = lanes_.size();
        // Per lane: does an atomic value under the head label accept?
        auto mark_leaf_accepting = [&] {
            for (std::size_t i = 0; i < n; ++i) {
                const automaton::CompiledQuery& cq = *lanes_[i].cq;
                int symbol = cq.alphabet().label_symbol(label);
                targets_[i] =
                    cq.flags(cq.transition(cq.initial_state(), symbol)).accepting
                        ? 1
                        : 0;
            }
        };
        mark_leaf_accepting();

        LabelSearch search(document, kernels, label, validator, accountant,
                           budget_);
        StructuralIterator iter(document, kernels, validator,
                                options_.limits.max_depth, accountant, budget_);

        while (auto occurrence = search.next()) {
            stats_.counters.add(obs::Counter::kHeadSkipJumps);
            std::size_t value = iter.first_non_ws(occurrence->colon_pos + 1);
            if (value >= document.size()) {
                break;
            }
            std::uint8_t first = document.data()[value];
            if (first == classify::kOpenBrace ||
                first == classify::kOpenBracket) {
                iter.resume(search.resume_point_at(value));
                run_main_loop(iter, /*at_document_root=*/false);
                if (!status_.ok()) {
                    return;
                }
                // run_main_loop clobbers targets_; restore the per-lane
                // atom-acceptance bits for the next occurrence.
                mark_leaf_accepting();
                search.resume(iter.resume_point());
            } else {
                for (std::size_t i = 0; i < n; ++i) {
                    if (targets_[i] != 0) {
                        report(i, value);
                        if (!status_.ok()) {
                            return;
                        }
                    }
                }
            }
        }
        // A budget violation inside either pipeline parks it silently
        // (next() runs dry); surface its status so the caller does not
        // mistake the park for a clean end of input. The search and the
        // iterator are separate block streams with independent latches.
        if (status_.ok() && !search.status().ok()) {
            fail(search.status().code, search.status().offset);
        }
        if (status_.ok() && !iter.status().ok()) {
            fail(iter.status().code, iter.status().offset);
        }
    }

private:
    void fail(StatusCode code, std::size_t offset)
    {
        if (status_.ok()) {
            status_ = {code, offset};
        }
    }

    /** Reports a match for distinct lane @p d, fanning out to every input
     *  query that owns it (ascending). max_match_count applies per lane —
     *  duplicates share the counter, so each trips exactly where its own
     *  independent run would. */
    void report(std::size_t d, std::size_t offset)
    {
        // A filter-rejected candidate is not a match: it neither reaches
        // the owners nor counts toward the lane's limit (the DOM oracle
        // never sees it either).
        if (gates_[d] != nullptr && !gates_[d]->admits(offset)) {
            return;
        }
        if (++lanes_[d].matches > options_.limits.max_match_count) {
            fail(StatusCode::kMatchLimit, offset);
            return;
        }
        for (std::size_t owner : queries_.owners(d)) {
            stats_.counters.add(obs::Counter::kSubscriberFanout);
            sink_.on_match(owner, offset);
        }
    }

    const MultiQuery& queries_;
    const EngineOptions& options_;
    MultiSink& sink_;
    RunStats& stats_;
    std::vector<Lane> lanes_;
    /** Per-distinct-lane filter gates; null for filter-free lanes. */
    std::vector<std::unique_ptr<project::FilterGate>> gates_;
    /** Per-lane scratch reused across events (targets / accept bits). */
    std::vector<int> targets_;
    const RunBudget* budget_ = nullptr;
    EngineStatus status_;
};

}  // namespace

MultiDescendEngine::MultiDescendEngine(MultiQuery queries, EngineOptions options)
    : queries_(std::move(queries)),
      options_(options),
      kernels_(&simd::kernels_for(options.simd))
{
}

std::string MultiDescendEngine::name() const
{
    return std::string("descend-multi-") + kernels_->name;
}

RunStats MultiDescendEngine::dispatch(PaddedView document, MultiSink& sink,
                                      const RunBudget& budget) const
{
    return run_document(
        document, *kernels_, options_, budget, queries_.all_root_accepting(),
        [&](std::size_t start) {
            for (std::size_t i = 0; i < queries_.size(); ++i) {
                sink.on_match(i, start);
            }
        },
        queries_.common_head_skip_label().has_value() && options_.head_skipping,
        [&](RunStats& stats, const RunBudget* budget_ptr) {
            return FusedSimulation(queries_, options_, sink, stats, document,
                                   *kernels_, budget_ptr);
        });
}

}  // namespace descend::multi
