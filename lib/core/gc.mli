(** The garbage collection rule (§7): locations not reachable from the
    configuration's value/expression, environment and continuation may be
    removed from the active store.

    A space-efficient computation (Definition 21) applies this rule
    whenever it is applicable, i.e. runs with a fully collected store.
    The machine achieves the same measured peaks lazily; see
    {!Machine}.

    Both walks below are written over {!Types.refs}, the one statement
    of what each value and frame holds. Each distinct environment base
    (see {!Env}) is traced once per collection, so a collection costs
    O(live + frames + overlay bindings), independent of how many
    environments share the global bindings. *)

val collect :
  control_locs:Types.loc list ->
  env:Types.Env.t ->
  cont:Types.cont ->
  Store.t ->
  Store.t * int
(** Remove every location unreachable from the configuration; returns
    the collected store and the number of locations reclaimed. *)

val occurs_in_retained :
  candidates:(Types.loc, unit) Hashtbl.t ->
  control_locs:Types.loc list ->
  env:Types.Env.t ->
  cont:Types.cont ->
  retained:Store.t ->
  (Types.loc, unit) Hashtbl.t
(** Support for the [I_stack] return rule's side condition: which of
    [candidates] occur (syntactically, one level deep per store cell)
    within the value, environment, continuation, or any retained store
    cell. [retained] must already exclude the cells being deleted.
    Candidates are assumed to be run-time allocations, so environment
    bases (prelude-time bindings) are not scanned. *)
