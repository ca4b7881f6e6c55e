(* The garbage-collection rule: reachability through the store, the
   once-per-base optimization's transparency, Return_stack pinning, and
   the I_stack occurs-check. *)

module T = Tailspace_core.Types
module Env = Tailspace_core.Types.Env
module Store = Tailspace_core.Store
module Gc = Tailspace_core.Gc
module M = Tailspace_core.Machine

let check_int = Alcotest.(check int)

let lam body = { Tailspace_ast.Ast.params = []; rest = None; body }
let unit_body = Tailspace_ast.Ast.Quote Tailspace_ast.Ast.C_nil

let test_collect_unreachable () =
  let s = Store.empty in
  let s, live = Store.alloc s T.Nil in
  let s, dead = Store.alloc s (T.Sym "garbage") in
  let env = Env.add "x" live Env.empty in
  let s', n = Gc.collect ~control_locs:[] ~env ~cont:T.Halt s in
  check_int "one reclaimed" 1 n;
  Alcotest.(check bool) "live kept" true (Store.mem s' live);
  Alcotest.(check bool) "dead gone" false (Store.mem s' dead)

let test_collect_transitive () =
  let s = Store.empty in
  let s, inner = Store.alloc s (T.Sym "deep") in
  let s, a = Store.alloc s (T.Int Tailspace_bignum.Bignum.zero) in
  let s, d = Store.alloc s T.Nil in
  let s, pair_cell = Store.alloc s (T.Pair (a, d)) in
  let s = Store.set s d (T.Vector [| inner |]) in
  let env = Env.add "p" pair_cell Env.empty in
  let s', n = Gc.collect ~control_locs:[] ~env ~cont:T.Halt s in
  check_int "nothing reclaimed" 0 n;
  Alcotest.(check bool) "inner reachable via vector in cdr" true (Store.mem s' inner)

let test_collect_through_closure_env () =
  let s = Store.empty in
  let s, captured = Store.alloc s (T.Sym "kept") in
  let s, tag = Store.alloc s T.Unspecified in
  let env = Env.add "x" captured Env.empty in
  let closure = T.Closure (tag, lam unit_body, env) in
  let s, home = Store.alloc s closure in
  let roots_env = Env.add "f" home Env.empty in
  let s', n = Gc.collect ~control_locs:[] ~env:roots_env ~cont:T.Halt s in
  check_int "none reclaimed" 0 n;
  Alcotest.(check bool) "captured kept" true (Store.mem s' captured)

let test_collect_through_cont () =
  let s = Store.empty in
  let s, in_frame = Store.alloc s (T.Sym "frame-held") in
  let s, loose = Store.alloc s (T.Sym "loose") in
  let frame_env = Env.add "y" in_frame Env.empty in
  let k = T.select ~e1:unit_body ~e2:unit_body ~env:frame_env ~next:T.Halt () in
  let s', n = Gc.collect ~control_locs:[] ~env:Env.empty ~cont:k s in
  check_int "loose reclaimed" 1 n;
  Alcotest.(check bool) "frame binding kept" true (Store.mem s' in_frame);
  Alcotest.(check bool) "loose gone" false (Store.mem s' loose)

let test_collect_through_escape () =
  let s = Store.empty in
  let s, held = Store.alloc s (T.Sym "held") in
  let s, tag = Store.alloc s T.Unspecified in
  let k = T.assign ~id:"x" ~env:(Env.add "x" held Env.empty) ~next:T.Halt () in
  let escape = T.Escape (tag, k) in
  let s, home = Store.alloc s escape in
  let s', n =
    Gc.collect ~control_locs:[ home ] ~env:Env.empty ~cont:T.Halt s
  in
  check_int "none reclaimed" 0 n;
  Alcotest.(check bool) "held via captured continuation" true (Store.mem s' held)

let test_return_stack_pins_deletions () =
  (* §8: the deletion set extends the lifetime of garbage to that of
     Algol-like stack allocation — A counts as an occurrence. *)
  let s = Store.empty in
  let s, pinned = Store.alloc s (T.Sym "garbage-but-pinned") in
  let k = T.return_stack ~dels:[ pinned ] ~env:Env.empty ~next:T.Halt () in
  let s', n = Gc.collect ~control_locs:[] ~env:Env.empty ~cont:k s in
  check_int "nothing reclaimed" 0 n;
  Alcotest.(check bool) "pinned" true (Store.mem s' pinned)

let test_rebased_env_roots () =
  (* the once-per-base optimization must not lose roots *)
  let s = Store.empty in
  let s, a = Store.alloc s (T.Sym "a") in
  let s, b = Store.alloc s (T.Sym "b") in
  let base = Env.rebase (Env.add_list [ ("a", a); ("b", b) ] Env.empty) in
  let e1 = Env.add "x" a base in
  let k = T.select ~e1:unit_body ~e2:unit_body ~env:e1 ~next:T.Halt () in
  let s', n = Gc.collect ~control_locs:[] ~env:base ~cont:k s in
  check_int "none reclaimed" 0 n;
  Alcotest.(check bool) "b survives via shared base" true (Store.mem s' b)

let table_of locs =
  let h = Hashtbl.create 4 in
  List.iter (fun l -> Hashtbl.replace h l ()) locs;
  h

let test_occurs_check () =
  let s = Store.empty in
  let s, target = Store.alloc s (T.Sym "t") in
  let s, other = Store.alloc s (T.Sym "o") in
  let s, referencing = Store.alloc s (T.Pair (target, other)) in
  ignore referencing;
  let retained = Store.remove_all s [ target ] in
  (* target occurs in the retained pair cell *)
  let hits =
    Gc.occurs_in_retained ~candidates:(table_of [ target ]) ~control_locs:[]
      ~env:Env.empty ~cont:T.Halt ~retained
  in
  check_int "found via store" 1 (Hashtbl.length hits);
  (* but not when the referencing cell is also deleted *)
  let retained2 = Store.remove_all s [ target; referencing ] in
  let hits2 =
    Gc.occurs_in_retained ~candidates:(table_of [ target ]) ~control_locs:[]
      ~env:Env.empty ~cont:T.Halt ~retained:retained2
  in
  check_int "no occurrence" 0 (Hashtbl.length hits2)

let test_occurs_via_env_and_value () =
  let s = Store.empty in
  let s, target = Store.alloc s (T.Sym "t") in
  let env = Env.add "x" target Env.empty in
  let hits =
    Gc.occurs_in_retained ~candidates:(table_of [ target ]) ~control_locs:[]
      ~env ~cont:T.Halt ~retained:(Store.remove_all s [ target ])
  in
  check_int "found via env" 1 (Hashtbl.length hits);
  let hits2 =
    Gc.occurs_in_retained ~candidates:(table_of [ target ])
      ~control_locs:[ target ] ~env:Env.empty ~cont:T.Halt
      ~retained:(Store.remove_all s [ target ])
  in
  check_int "found via control value" 1 (Hashtbl.length hits2)

(* Every way a configuration can hold a location, one row each: the
   row builds a configuration that holds [l] in that way only. The
   holder frame sits under an innocent one, so the walk must follow
   [next]; holder values live in a cell the control value names. *)
let holders =
  let env_of l = Env.add "x" l Env.empty in
  let frame k s = (s, [], Env.empty, T.call ~vals:[ T.Nil ] ~next:k ()) in
  let in_cell v s =
    let s, home = Store.alloc s v in
    (s, [ home ], Env.empty, T.Halt)
  in
  let with_tag mk s =
    let s, tag = Store.alloc s T.Unspecified in
    in_cell (mk tag) s
  in
  [
    ( "select env",
      fun l ->
        frame (T.select ~e1:unit_body ~e2:unit_body ~env:(env_of l) ~next:T.Halt ())
    );
    ("assign env", fun l -> frame (T.assign ~id:"x" ~env:(env_of l) ~next:T.Halt ()));
    ( "push env",
      fun l ->
        frame
          (T.push ~pending:0 ~remaining:[ (1, unit_body) ] ~evaluated:[]
             ~env:(env_of l) ~next:T.Halt ()) );
    ( "push evaluated value",
      fun l ->
        frame
          (T.push ~pending:1 ~remaining:[] ~evaluated:[ (0, T.Pair (l, l)) ]
             ~env:Env.empty ~next:T.Halt ()) );
    ("call value", fun l -> frame (T.call ~vals:[ T.Vector [| l |] ] ~next:T.Halt ()));
    ("return env", fun l -> frame (T.return_gc ~env:(env_of l) ~next:T.Halt ()));
    ( "return_stack dels",
      fun l -> frame (T.return_stack ~dels:[ l ] ~env:Env.empty ~next:T.Halt ()) );
    ( "return_stack env",
      fun l -> frame (T.return_stack ~dels:[] ~env:(env_of l) ~next:T.Halt ()) );
    ( "escape in a cell",
      fun l ->
        with_tag (fun tag ->
            T.Escape (tag, T.return_gc ~env:(env_of l) ~next:T.Halt ())) );
    ( "closure env",
      fun l -> with_tag (fun tag -> T.Closure (tag, lam unit_body, env_of l)) );
    ("pair", fun l -> in_cell (T.Pair (l, l)));
    ("vector", fun l -> in_cell (T.Vector [| l |]));
  ]

let test_every_holder () =
  List.iter
    (fun (name, hold) ->
      let s = Store.empty in
      let s, garbage = Store.alloc s (T.Sym "garbage") in
      let s, target = Store.alloc s (T.Sym "target") in
      let s, control_locs, env, cont = hold target s in
      let s', n = Gc.collect ~control_locs ~env ~cont s in
      Alcotest.(check bool) (name ^ ": collect keeps") true (Store.mem s' target);
      Alcotest.(check bool)
        (name ^ ": collect drops garbage")
        false (Store.mem s' garbage);
      check_int (name ^ ": one reclaimed") 1 n;
      let hits =
        Gc.occurs_in_retained ~candidates:(table_of [ target ]) ~control_locs
          ~env ~cont ~retained:(Store.remove_all s [ target ])
      in
      check_int (name ^ ": occurs check finds") 1 (Hashtbl.length hits))
    holders

let test_gc_does_not_change_answers () =
  (* linked measurement forces a collection at every step; answers and
     flat peaks must match the lazy schedule *)
  List.iter
    (fun src ->
      let t = M.create_with M.Config.default in
      let lazy_r = M.exec_string t src in
      let eager_r =
        M.exec_string
          ~opts:
            (M.Run_opts.make
               ~measure:
                 [ Tailspace_core.Space_model.Flat;
                   Tailspace_core.Space_model.Linked ]
               ())
          t src
      in
      match (lazy_r.M.outcome, eager_r.M.outcome) with
      | M.Done { answer = a1; _ }, M.Done { answer = a2; _ } ->
          Alcotest.(check string) "answers agree" a1 a2;
          Alcotest.(check int) "flat peaks agree" (M.peak_space lazy_r)
            (M.peak_space eager_r)
      | _ -> Alcotest.fail "expected Done")
    [
      "(define (f n) (if (zero? n) 'ok (f (- n 1)))) (f 40)";
      "(length (map (lambda (x) (cons x x)) '(1 2 3 4 5)))";
      "(define v (make-vector 5 0)) (vector-set! v 3 'x) (vector-ref v 3)";
    ]

let test_gc_counts_reported () =
  let t = M.create_with M.Config.default in
  let r =
    M.exec_string t
      "(define (churn n) (if (zero? n) 'ok (churn (- n 1)))) (churn 2000)"
  in
  Alcotest.(check bool) "collector ran" true (r.M.gc_runs > 0)

let () =
  Alcotest.run "gc"
    [
      ( "reachability",
        [
          Alcotest.test_case "unreachable collected" `Quick test_collect_unreachable;
          Alcotest.test_case "transitive" `Quick test_collect_transitive;
          Alcotest.test_case "closure env" `Quick test_collect_through_closure_env;
          Alcotest.test_case "continuation" `Quick test_collect_through_cont;
          Alcotest.test_case "escape" `Quick test_collect_through_escape;
          Alcotest.test_case "return_stack pins" `Quick test_return_stack_pins_deletions;
          Alcotest.test_case "rebased roots" `Quick test_rebased_env_roots;
          Alcotest.test_case "every holder" `Quick test_every_holder;
        ] );
      ( "occurs-check",
        [
          Alcotest.test_case "via store" `Quick test_occurs_check;
          Alcotest.test_case "via env/value" `Quick test_occurs_via_env_and_value;
        ] );
      ( "integration",
        [
          Alcotest.test_case "schedule-independent" `Quick test_gc_does_not_change_answers;
          Alcotest.test_case "gc runs counted" `Quick test_gc_counts_reported;
        ] );
    ]
