(* The space models of Figures 7 and 8: exact unit values, incremental
   store accounting, continuation size caching, the measured S_X
   hierarchy, and flat-vs-linked relationships. *)

module T = Tailspace_core.Types
module Env = Tailspace_core.Types.Env
module Store = Tailspace_core.Store
module Space = Tailspace_core.Space
module SM = Tailspace_core.Space_model
module M = Tailspace_core.Machine
module A = Tailspace_ast.Ast
module B = Tailspace_bignum.Bignum
module E = Tailspace_expander.Expand

let check_int = Alcotest.(check int)

(* --- Figure 7: space of values --- *)

let test_value_space_atoms () =
  check_int "bool" 1 (T.value_space (T.Bool true));
  check_int "symbol" 1 (T.value_space (T.Sym "hello"));
  check_int "char" 1 (T.value_space (T.Char 'x'));
  check_int "nil" 1 (T.value_space T.Nil);
  check_int "unspecified" 1 (T.value_space T.Unspecified);
  check_int "primop" 1 (T.value_space (T.Primop "car"))

let test_value_space_numbers () =
  (* space(NUM:z) = 1 + log2 z for positive exact integers *)
  check_int "zero" 1 (T.value_space (T.Int B.zero));
  check_int "one" 2 (T.value_space (T.Int B.one));
  check_int "1024" 12 (T.value_space (T.Int (B.of_int 1024)));
  check_int "negative mirrors" 12 (T.value_space (T.Int (B.of_int (-1024))));
  check_int "2^100" 102 (T.value_space (T.Int (B.pow (B.of_int 2) 100)))

let test_value_space_structures () =
  check_int "pair" 3 (T.value_space (T.Pair (0, 1)));
  check_int "vector" 6 (T.value_space (T.Vector [| 0; 1; 2; 3; 4 |]));
  check_int "empty vector" 1 (T.value_space (T.Vector [||]));
  check_int "string" 6 (T.value_space (T.Str "hello"));
  let env = Env.add_list [ ("a", 0); ("b", 1); ("c", 2) ] Env.empty in
  let lam = { A.params = [ "x" ]; rest = None; body = A.Var "x" } in
  check_int "closure 1+|dom|" 4 (T.value_space (T.Closure (9, lam, env)))

(* --- Figure 7: space of continuations, cached --- *)

let test_cont_space () =
  let env2 = Env.add_list [ ("a", 0); ("b", 1) ] Env.empty in
  let e = A.Var "x" in
  check_int "halt" 1 (T.cont_space T.Halt);
  let sel = T.select ~e1:e ~e2:e ~env:env2 ~next:T.Halt () in
  check_int "select 1+|dom|+halt" 4 (T.cont_space sel);
  let asn = T.assign ~id:"a" ~env:env2 ~next:sel () in
  (* 1 + |dom|(2) + select(4) *)
  check_int "assign chains" 7 (T.cont_space asn);
  let psh =
    T.push ~pending:0 ~remaining:[ (1, e); (2, e) ]
      ~evaluated:[ (0, T.Bool true) ] ~env:env2 ~next:T.Halt ()
  in
  (* 1 + m(2) + n(1) + |dom|(2) + halt(1) *)
  check_int "push" 7 (T.cont_space psh);
  let cal = T.call ~vals:[ T.Nil; T.Nil; T.Nil ] ~next:T.Halt () in
  check_int "call 1+m+halt" 5 (T.cont_space cal);
  check_int "return" 4 (T.cont_space (T.return_gc ~env:env2 ~next:T.Halt ()));
  check_int "return_stack" 4
    (T.cont_space (T.return_stack ~dels:[ 5 ] ~env:env2 ~next:T.Halt ()));
  (* escapes carry their continuation's space *)
  check_int "escape" 8 (T.value_space (T.Escape (7, asn)))

(* --- store accounting --- *)

let test_store_tracking () =
  let s = Store.empty in
  check_int "empty" 0 (Store.space s);
  let s, l1 = Store.alloc s (T.Int (B.of_int 1024)) in
  check_int "alloc adds 1+space" 13 (Store.space s);
  let s, _l2 = Store.alloc s T.Nil in
  check_int "second cell" 15 (Store.space s);
  let s = Store.set s l1 T.Nil in
  check_int "overwrite adjusts" 4 (Store.space s);
  let s = Store.remove_all s [ l1 ] in
  check_int "removal subtracts" 2 (Store.space s);
  check_int "cardinal" 1 (Store.cardinal s)

let test_store_set_unallocated () =
  Alcotest.check_raises "set unallocated"
    (Invalid_argument "Store.set: unallocated location") (fun () ->
      ignore (Store.set Store.empty 99 T.Nil))

let test_env_cardinal () =
  let e = Env.empty in
  check_int "empty" 0 (Env.cardinal e);
  let e = Env.add "x" 0 e in
  let e = Env.add "y" 1 e in
  check_int "two" 2 (Env.cardinal e);
  let e = Env.add "x" 2 e in
  check_int "rebind same dom" 2 (Env.cardinal e);
  let r = Env.restrict e (A.Iset.singleton "y") in
  check_int "restrict" 1 (Env.cardinal r);
  Alcotest.(check (option int)) "restrict keeps" (Some 1) (Env.find_opt "y" r);
  Alcotest.(check (option int)) "restrict drops" None (Env.find_opt "x" r)

let test_env_rebase_transparent () =
  let e = Env.add_list [ ("a", 1); ("b", 2) ] Env.empty in
  let r = Env.rebase e in
  check_int "same cardinal" (Env.cardinal e) (Env.cardinal r);
  Alcotest.(check (option int)) "lookup a" (Some 1) (Env.find_opt "a" r);
  let r2 = Env.add "a" 9 r in
  Alcotest.(check (option int)) "overlay shadows base" (Some 9) (Env.find_opt "a" r2);
  check_int "shadowing keeps |dom|" 2 (Env.cardinal r2);
  (* shadow-aware iteration sees each identifier once *)
  let seen = ref [] in
  Env.iter (fun x l -> seen := (x, l) :: !seen) r2;
  Alcotest.(check int) "two bindings" 2 (List.length !seen);
  Alcotest.(check bool) "a maps to 9" true (List.mem ("a", 9) !seen)

(* --- linked model (Figure 8) --- *)

let test_linked_counts_shared_bindings_once () =
  let env = Env.add_list [ ("a", 0); ("b", 1); ("c", 2) ] Env.empty in
  let lam = { A.params = []; rest = None; body = A.Quote (A.C_int B.zero) } in
  let store = Store.empty in
  let store, t1 = Store.alloc store T.Unspecified in
  let store, t2 = Store.alloc store T.Unspecified in
  let store, _c1 = Store.alloc store (T.Closure (t1, lam, env)) in
  let store, _c2 = Store.alloc store (T.Closure (t2, lam, env)) in
  let linked =
    Space.linked_config_space ~control:(`Expr (A.Var "x")) ~env:Env.empty
      ~cont:T.Halt ~store
  in
  (* words: halt(1) + 4 cells (1 each) + 2 tags (1 each) + 2 closures
     (1 each) = 9; bindings: the 3 shared ones counted once *)
  check_int "shared env once" 12 linked;
  (* flat counts the environment per closure: store space is
     4 cells + tags 2*1 + closures 2*(1+3) = 4 + 2 + 8 = 14 *)
  check_int "flat copies" 14 (Store.space store)

(* One configuration with every frame kind, an escape in the store and
   a binding, (x, a), shared by a closure and two frames. Cells are
   allocated at sites 10..15 and frames pushed at sites 1..7, so each
   census row is one owner of the Figure 8 walk. *)
let test_figure8_walk_by_owner () =
  let module C = Tailspace_core.Census in
  let module P = Tailspace_provenance.Provenance in
  let c = C.create () in
  let store = ref (C.instrument c Store.empty) in
  let alloc site v =
    C.set_alloc_site c ~site ~phase:None;
    let s, l = Store.alloc !store v in
    store := s;
    l
  in
  let e = A.Var "x" in
  let lam = { A.params = []; rest = None; body = e } in
  let env1 x l = Env.add x l Env.empty in
  let a = alloc 10 (T.Sym "a") in
  let b = alloc 11 (T.Sym "b") in
  let tag1 = alloc 12 T.Unspecified in
  let clo =
    alloc 13 (T.Closure (tag1, lam, Env.add_list [ ("x", a); ("y", b) ] Env.empty))
  in
  let tag2 = alloc 14 T.Unspecified in
  let _esc =
    alloc 15 (T.Escape (tag2, T.return_gc ~site:7 ~env:(env1 "z" b) ~next:T.Halt ()))
  in
  let store = !store in
  let cont =
    T.select ~site:1 ~e1:e ~e2:e ~env:(env1 "x" a)
      ~next:
        (T.assign ~site:2 ~id:"y" ~env:(env1 "y" b)
           ~next:
             (T.push ~site:3 ~pending:1 ~remaining:[ (2, e) ]
                ~evaluated:[ (0, T.Nil) ] ~env:(env1 "w" a)
                ~next:
                  (T.call ~site:4 ~vals:[ T.Nil; T.Nil ]
                     ~next:
                       (T.return_gc ~site:5 ~env:(env1 "x" a)
                          ~next:
                            (T.return_stack ~site:6 ~dels:[ b ] ~env:Env.empty
                               ~next:T.Halt ()) ()) ()) ()) ()) ()
  in
  let control = `Value (T.Pair (a, b)) and env = env1 "r" clo in
  (* control pair 3; frames 1+1+3+3+1+1 at sites 1..6, 1 at site 7 (the
     escape's frame); Halt 2 (one per continuation); six cells 2 words
     each; bindings (r,clo) (x,a) (w,a) (y,b) (z,b), charged to the
     cells they name *)
  let linked = Space.linked_config_space ~control ~env ~cont ~store in
  check_int "hand-computed U" 33 linked;
  let frame site w = ((site, P.P_frame), w, 0) in
  let cell site phase w = ((site, phase), w, 1) in
  let expected =
    [
      ((-1, P.P_control), 3, 0);
      ((-1, P.P_halt), 2, 0);
      frame 1 1; frame 2 1; frame 3 3; frame 4 3; frame 5 1; frame 6 1;
      frame 7 1;
      cell 10 P.P_atom 4; cell 11 P.P_atom 4; cell 12 P.P_atom 2;
      cell 13 P.P_closure 3; cell 14 P.P_atom 2; cell 15 P.P_escape 2;
    ]
  in
  let rows (census : P.t option) =
    match census with
    | None -> Alcotest.fail "no census"
    | Some census ->
        List.sort compare
          (List.map
             (fun (r : P.row) -> ((r.P.site, r.P.phase), r.P.words, r.P.cells))
             census.P.rows)
  in
  let bits = Space.pointer_bits store in
  check_int "pointer bits of 6 cells" 3 bits;
  C.stash_linked c ~control ~env ~cont ~store;
  C.stash_log c ~control ~env ~cont ~store;
  let lc = C.linked_census c ~peak:linked
  and gc = C.log_census c ~peak:(bits * linked) in
  check_int "linked census total" linked (P.total (Option.get lc));
  check_int "log census total" (bits * linked) (P.total (Option.get gc));
  let row = Alcotest.(list (triple (pair int string) int int)) in
  let named = List.map (fun ((s, p), w, n) -> ((s, P.phase_name p), w, n)) in
  Alcotest.check row "linked rows" (named (List.sort compare expected))
    (named (rows lc));
  Alcotest.check row "log rows"
    (named (List.sort compare (List.map (fun (k, w, n) -> (k, bits * w, n)) expected)))
    (named (rows gc))

let test_linked_leq_flat_on_runs () =
  (* U_X <= S_X pointwise (§13), checked on real measured runs *)
  List.iter
    (fun (variant, src) ->
      let t = M.create_with (M.Config.make ~variant ()) in
      let r =
        M.exec_string
          ~opts:(M.Run_opts.make ~measure:[ SM.Flat; SM.Linked ] ())
          t src
      in
      match (r.M.outcome, M.peak_linked r) with
      | M.Done _, Some u ->
          Alcotest.(check bool)
            (M.variant_name variant ^ " U <= S")
            true
            (u <= M.peak_space r)
      | _ -> Alcotest.fail "expected measured Done")
    [
      (M.Tail, "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 30)");
      (M.Gc, "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 30)");
      (M.Tail, "(map (lambda (x) (lambda () x)) '(1 2 3 4))");
      (M.Evlis, "(let ((v (make-vector 10))) (vector-length v))");
    ]

(* --- measured hierarchy --- *)

let space_of variant src =
  let t = M.create_with (M.Config.make ~variant ()) in
  let r = M.exec_string t src in
  match r.M.outcome with
  | M.Done _ -> M.space_consumption r
  | M.Stuck m -> Alcotest.failf "stuck: %s" m
  | M.Aborted { reason; _ } ->
      Alcotest.failf "aborted: %s"
        (Tailspace_resilience.Resilience.abort_reason_message reason)

let test_theorem24_chain_samples () =
  List.iter
    (fun src ->
      let s v = space_of v src in
      let tail = s M.Tail
      and gc = s M.Gc
      and stack = s M.Stack
      and evlis = s M.Evlis
      and free = s M.Free
      and sfs = s M.Sfs in
      Alcotest.(check bool) "tail<=gc" true (tail <= gc);
      Alcotest.(check bool) "gc<=stack" true (gc <= stack);
      Alcotest.(check bool) "sfs<=evlis" true (sfs <= evlis);
      Alcotest.(check bool) "evlis<=tail" true (evlis <= tail);
      Alcotest.(check bool) "sfs<=free" true (sfs <= free);
      Alcotest.(check bool) "free<=tail" true (free <= tail))
    [
      "(define (f n) (if (zero? n) 0 (f (- n 1)))) (f 25)";
      "(define (sum l) (if (null? l) 0 (+ (car l) (sum (cdr l))))) (sum '(1 2 3 4))";
      "(map (lambda (x) (* x x)) '(1 2 3))";
      "(call/cc (lambda (k) (k 1)))";
    ]

let test_space_consumption_includes_program_size () =
  let t = M.create_with M.Config.default in
  let e = E.expression_of_string "(+ 1 2)" in
  let r = M.exec t e in
  Alcotest.(check int) "|P|" (A.size e) r.M.program_size;
  Alcotest.(check int) "S = |P| + peak" (r.M.program_size + M.peak_space r)
    (M.space_consumption r)

let test_proper_tail_recursion_constant_space () =
  (* the defining property: iteration in constant space under I_tail *)
  let s n =
    space_of M.Tail
      (Printf.sprintf "(define (loop n) (if (zero? n) 'ok (loop (- n 1)))) (loop %d)" n)
  in
  let s100 = s 100 and s10000 = s 10000 in
  Alcotest.(check bool)
    (Printf.sprintf "S(10000)=%d within 2%% of S(100)=%d" s10000 s100)
    true
    (float_of_int s10000 <= 1.02 *. float_of_int s100)

let test_improper_linear_space () =
  let s n =
    space_of M.Gc
      (Printf.sprintf "(define (loop n) (if (zero? n) 'ok (loop (- n 1)))) (loop %d)" n)
  in
  let s100 = s 100 and s400 = s 400 in
  Alcotest.(check bool) "gc grows ~4x" true
    (float_of_int s400 >= 2.5 *. float_of_int s100)

let test_exact_vs_approximate_policy () =
  let t = M.create_with M.Config.default in
  let src = "(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) (length (build 50))" in
  let exact = M.exec_string ~opts:(M.Run_opts.make ~gc_policy:`Exact ()) t src in
  let approx =
    M.exec_string ~opts:(M.Run_opts.make ~gc_policy:`Approximate ()) t src
  in
  Alcotest.(check bool) "approx is a lower bound" true
    (M.peak_space approx <= M.peak_space exact);
  Alcotest.(check bool) "within documented slack" true
    (float_of_int (M.peak_space exact)
    <= (1.125 *. float_of_int (M.peak_space approx)) +. 200.)

let () =
  Alcotest.run "space"
    [
      ( "figure7",
        [
          Alcotest.test_case "atoms" `Quick test_value_space_atoms;
          Alcotest.test_case "numbers" `Quick test_value_space_numbers;
          Alcotest.test_case "structures" `Quick test_value_space_structures;
          Alcotest.test_case "continuations" `Quick test_cont_space;
        ] );
      ( "store-env",
        [
          Alcotest.test_case "store tracking" `Quick test_store_tracking;
          Alcotest.test_case "store set errors" `Quick test_store_set_unallocated;
          Alcotest.test_case "env cardinal" `Quick test_env_cardinal;
          Alcotest.test_case "env rebase" `Quick test_env_rebase_transparent;
        ] );
      ( "figure8",
        [
          Alcotest.test_case "shared bindings once" `Quick
            test_linked_counts_shared_bindings_once;
          Alcotest.test_case "U <= S" `Quick test_linked_leq_flat_on_runs;
          Alcotest.test_case "walk by owner" `Quick test_figure8_walk_by_owner;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "theorem 24 samples" `Quick test_theorem24_chain_samples;
          Alcotest.test_case "S includes |P|" `Quick
            test_space_consumption_includes_program_size;
          Alcotest.test_case "tail: constant-space loop" `Quick
            test_proper_tail_recursion_constant_space;
          Alcotest.test_case "gc: linear-space loop" `Quick test_improper_linear_space;
          Alcotest.test_case "gc policies" `Quick test_exact_vs_approximate_policy;
        ] );
    ]
