(** The linked-environment space model (Figure 8, §13).

    In the linked model each binding — a pair of an identifier and a
    location — is counted {e once per configuration}, no matter how many
    environments (the register, saved continuation environments, closure
    environments anywhere in the configuration or store) contain it;
    environments are shared rather than copied. Everything else is
    charged as in the flat model, except that closures cost 1 word plus
    their (shared) bindings and each continuation frame costs its
    non-environment overhead.

    This yields the [U_X] space consumption functions; Theorem 26 shows
    [O(U_tail)] and [O(U_evlis)] are incomparable with [O(S_free)] and
    [O(S_sfs)], which experiment E4 reproduces.

    The model is written once, as {!linked_charges}: the measured peak
    ({!linked_config_space}), the log model (that figure times
    {!pointer_bits}) and the linked and log censuses ({!Census}) are
    all that walk, summed or attributed. *)

type owner =
  | Cell
      (** a store cell: its own word, its value's charges, and one word
          for each distinct binding that names it *)
  | Frame  (** a continuation frame *)
  | Halt  (** a [Halt] word, of the configuration's or an escape's continuation *)
  | Control  (** the control value *)

val linked_charges :
  control:[ `Expr of Tailspace_ast.Ast.expr | `Value of Types.value ] ->
  env:Types.Env.t ->
  cont:Types.cont ->
  store:Store.t ->
  (owner -> int -> int -> unit) ->
  unit
(** [linked_charges c charge] walks the configuration per Figure 8 and
    calls [charge owner id words] for every charge, where [id] is the
    cell's location for [Cell], the frame's provenance site for [Frame]
    and [-1] otherwise; the charges sum to {!linked_config_space}. *)

val linked_config_space :
  control:[ `Expr of Tailspace_ast.Ast.expr | `Value of Types.value ] ->
  env:Types.Env.t ->
  cont:Types.cont ->
  store:Store.t ->
  int
(** The linked space of a configuration: {!linked_charges} summed. The
    store should be fully garbage collected first, since Definition 21
    measures space-efficient computations only. *)

val pointer_bits : Store.t -> int
(** The pointer size for the logarithmic model: a pointer into a store of
    [k] live cells needs [ceil(log2 k)] bits, clamped to at least 1.
    Every linked-model word costs that many bits, so the log space of a
    configuration ([Space_model.Log]) is
    [pointer_bits store * linked_config_space c]. The store should be
    fully garbage collected first, like {!linked_config_space}. *)
