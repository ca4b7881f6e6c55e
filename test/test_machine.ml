(* The reference machines: answers, variant-specific rules, stuck
   states, call/cc, apply, nondeterminism policies, output, fuel. *)

module M = Tailspace_core.Machine
module T = Tailspace_core.Types
module E = Tailspace_expander.Expand
module Res = Tailspace_resilience.Resilience
module A = Tailspace_ast.Ast
module Prim = Tailspace_core.Prim
module D = Tailspace_engines.Denotational
module S = Tailspace_engines.Secd
module Vm = Tailspace_vm.Vm

let answer ?(variant = M.Tail) ?perm ?stack_policy ?fuel src =
  let t = M.create_with (M.Config.make ~variant ?perm ?stack_policy ()) in
  let opts =
    match fuel with
    | Some fuel -> M.Run_opts.make ~fuel ()
    | None -> M.Run_opts.default
  in
  match (M.exec_string ~opts t src).M.outcome with
  | M.Done { answer; _ } -> answer
  | M.Stuck m -> "stuck: " ^ m
  | M.Aborted { reason; _ } ->
      "aborted: " ^ Tailspace_resilience.Resilience.abort_reason_message reason

let check ?variant ?perm ?stack_policy name src expected =
  Alcotest.(check string) name expected (answer ?variant ?perm ?stack_policy src)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let check_stuck ?variant ?stack_policy name src fragment =
  let got = answer ?variant ?stack_policy src in
  if not (contains got "stuck:" && contains got fragment) then
    Alcotest.failf "%s: expected stuck containing %S, got %S" name fragment got

let test_basics () =
  check "arith" "(+ 1 (* 2 3))" "7";
  check "nested" "(- 10 (quotient 7 2))" "7";
  check "booleans" "(if #f 'a 'b)" "b";
  check "only #f is false" "(if 0 'a 'b)" "a";
  check "empty list truthy" "(if '() 'a 'b)" "a";
  check "string answer" "\"hi\"" "\"hi\"";
  check "char answer" "#\\x" "#\\x";
  check "unspecified set!" "(define x 1) (set! x 2) x" "2"

let test_closures () =
  check "identity" "((lambda (x) x) 5)" "5";
  check "higher order" "((lambda (f) (f (f 3))) (lambda (x) (* x x)))" "81";
  check "closure captures" "(define (adder n) (lambda (x) (+ x n))) ((adder 4) 5)" "9";
  check "counter via set!"
    "(define (make) (let ((n 0)) (lambda () (set! n (+ n 1)) n)))
     (define c (make)) (c) (c) (c)"
    "3";
  check "procedures print opaquely" "(lambda (x) x)" "#<PROC>"

let test_recursion () =
  check "fact" "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 12)" "479001600";
  check "mutual"
    "(define (e? n) (if (zero? n) #t (o? (- n 1))))
     (define (o? n) (if (zero? n) #f (e? (- n 1))))
     (e? 17)"
    "#f";
  check "deep tail loop" "(define (loop n) (if (zero? n) 'ok (loop (- n 1)))) (loop 50000)" "ok"

let test_data () =
  check "list building" "(list 1 2 3)" "(1 2 3)";
  check "improper" "(cons 1 2)" "(1 . 2)";
  check "vector" "(vector 1 'a #t)" "#(1 a #t)";
  check "mutation" "(define p (cons 1 2)) (set-car! p 'x) p" "(x . 2)";
  check "vector mutation" "(define v (make-vector 2 0)) (vector-set! v 1 9) v" "#(0 9)";
  check "nested data" "(list (vector 1) (cons 'a '()))" "(#(1) (a))"

let test_cyclic_answer_is_finite () =
  (* Definition 11 allows infinite answers; rendering is fuel-bounded *)
  let a = answer "(define p (cons 1 2)) (set-cdr! p p) p" in
  Alcotest.(check bool) "bounded output" true (String.length a < 100_000);
  Alcotest.(check bool) "marked truncated" true
    (String.length a > 3 && String.sub a (String.length a - 3) 3 = "...")

let test_letrec_semantics () =
  check "letrec ok" "(letrec ((f (lambda (n) (if (zero? n) 'done (f (- n 1)))))) (f 3))" "done";
  check_stuck "premature access" "(letrec ((x (+ x 1))) x)" "before initialization";
  check "define sees later define"
    "(define (f) (g)) (define (g) 'late) (f)" "late"

(* One source, run as [(lambda (n) src)] applied to 0 on every engine
   that can run it: the stepper (Tail), the denotational engine, vm-fast,
   and the SECD machine when it binds every global the source uses.
   Each outcome is the answer or "stuck: <message>". *)
let engine_outcomes src =
  let program = E.program_of_string ("(lambda (n) " ^ src ^ ")") in
  let input = A.Quote (A.C_int Tailspace_bignum.Bignum.zero) in
  let stuck m = "stuck: " ^ m and aborted = "aborted" in
  let stepper =
    match (M.exec_program (M.create_with M.Config.default) ~program ~input).M.outcome with
    | M.Done { answer; _ } -> answer
    | M.Stuck m -> stuck m
    | M.Aborted _ -> aborted
  in
  let denotational =
    match D.eval_program ~program ~input () with
    | D.Done a -> a
    | D.Error m -> stuck m
    | D.Aborted _ -> aborted
  in
  let vm_fast =
    match (Vm.exec_program (M.Config.make ~engine:M.Vm_fast ()) ~program ~input).Vm.outcome with
    | Vm.Done a -> a
    | Vm.Stuck m -> stuck m
    | Vm.Aborted _ -> aborted
  in
  let secd =
    if A.Iset.for_all (fun x -> List.mem x S.prim_names) (A.free_vars program)
    then
      match (S.run_program ~program ~input ()).S.outcome with
      | S.Done a -> [ ("secd", a) ]
      | S.Error m -> [ ("secd", stuck m) ]
      | S.Aborted _ -> [ ("secd", aborted) ]
    else []
  in
  [ ("stepper", stepper); ("denotational", denotational); ("vm-fast", vm_fast) ]
  @ secd

let check_everywhere src expected =
  List.iter
    (fun (engine, got) ->
      Alcotest.(check string) (Printf.sprintf "%s on %s" src engine) expected got)
    (engine_outcomes src)

let test_stuck_states () =
  List.iter
    (fun (src, expected) -> check_everywhere src expected)
    [
      ("undefined-variable", "stuck: unbound variable: undefined-variable");
      ("(5 1)", "stuck: attempt to call a non-procedure (number)");
      ("((lambda (x) x) 1 2)", "stuck: arity: procedure expects 1 arguments, got 2");
      ("((lambda (x y) x) 1)", "stuck: arity: procedure expects 2 arguments, got 1");
      ("((lambda (a b . r) r) 1)", "stuck: arity: procedure expects at least 2 arguments, got 1");
      ("(set! nowhere 1)", "stuck: set!: unbound variable nowhere");
      ("(call/cc (lambda (k) (k 1 2)))", "stuck: continuation expects 1 value, got 2");
      ("(apply + 1)", "stuck: apply: last argument is not a proper list");
    ]

(* Every primitive of [Prim]'s table, with the answer or stuck message
   every engine must give (rows are [(primitive, source, expected)]). *)
let primitive_rows =
  [
    ("+", "(+ 1 2 3)", "6");
    ("+", "(+ 1 #t)", "stuck: +: expected number, got boolean");
    ("*", "(* 2 3 4)", "24");
    ("*", "(* 2 \"x\")", "stuck: *: expected number, got string");
    ("-", "(- 10 3 2)", "5");
    ("-", "(- 5)", "-5");
    ("-", "(-)", "stuck: -: expected at least 1 argument");
    ("quotient", "(quotient 17 5)", "3");
    ("quotient", "(quotient 1 0)", "stuck: quotient: division by zero");
    ("quotient", "(quotient 1)", "stuck: quotient: expected 2 arguments, got 1");
    ("remainder", "(remainder -17 5)", "-2");
    ("remainder", "(remainder 1 0)", "stuck: remainder: division by zero");
    ("modulo", "(modulo -17 5)", "3");
    ("modulo", "(modulo 1 0)", "stuck: modulo: division by zero");
    ("modulo", "(modulo 'a 2)", "stuck: modulo: expected number, got symbol");
    ("=", "(= 2 2 2)", "#t");
    ("=", "(= 1)", "stuck: =: expected at least 2 arguments");
    ("<", "(< 1 2 3)", "#t");
    ("<", "(< 1 'x)", "stuck: <: expected number, got symbol");
    (">", "(> 3 2 2)", "#f");
    (">", "(> 1 '())", "stuck: >: expected number, got empty list");
    ("<=", "(<= 1 1 2)", "#t");
    ("<=", "(<= #\\a 1)", "stuck: <=: expected number, got character");
    (">=", "(>= 2 1)", "#t");
    (">=", "(>= 1)", "stuck: >=: expected at least 2 arguments");
    ("zero?", "(zero? 0)", "#t");
    ("zero?", "(zero? 'a)", "stuck: zero?: expected number, got symbol");
    ("positive?", "(positive? 5)", "#t");
    ("positive?", "(positive? 1 2)", "stuck: positive?: expected 1 arguments, got 2");
    ("negative?", "(negative? 5)", "#f");
    ("negative?", "(negative? \"5\")", "stuck: negative?: expected number, got string");
    ("even?", "(even? 10)", "#t");
    ("even?", "(even?)", "stuck: even?: expected 1 arguments, got 0");
    ("odd?", "(odd? 10)", "#f");
    ("odd?", "(odd? #t)", "stuck: odd?: expected number, got boolean");
    ("abs", "(abs -7)", "7");
    ("abs", "(abs 'x)", "stuck: abs: expected number, got symbol");
    ("min", "(min 3 1 2)", "1");
    ("min", "(min)", "stuck: min: expected at least 1 argument");
    ("max", "(max 3 1 2)", "3");
    ("max", "(max 1 'a)", "stuck: max: expected number, got symbol");
    ("expt", "(expt 2 100)", "1267650600228229401496703205376");
    ("expt", "(expt 2 -1)", "stuck: expt: negative exponent");
    ("number->string", "(number->string 42)", "\"42\"");
    ("number->string", "(number->string 'a)", "stuck: number->string: expected number, got symbol");
    ("string->number", "(string->number \"123\")", "123");
    ("string->number", "(string->number \"abc\")", "#f");
    ("string->number", "(string->number 5)", "stuck: string->number: expected string, got number");
    ("random", "(< (random 10) 10)", "#t");
    ("random", "(random 0)", "stuck: random: bound must be positive");
    ("eq?", "(eq? 'a 'a)", "#t");
    ("eq?", "(let ((p (cons 1 2))) (eq? p p))", "#t");
    ("eq?", "(eq? (cons 1 2) (cons 1 2))", "#f");
    ("eq?", "(eq? 1)", "stuck: eq?: expected 2 arguments, got 1");
    ("eqv?", "(eqv? 100000000000000000000 100000000000000000000)", "#t");
    ("eqv?", "(eqv? car car)", "#t");
    ("eqv?", "(let ((f (lambda (x) x))) (eqv? f f))", "#t");
    ("eqv?", "(eqv? (lambda (x) x) (lambda (x) x))", "#f");
    ("eqv?", "(eqv? 1 2 3)", "stuck: eqv?: expected 2 arguments, got 3");
    ("equal?", "(equal? (list 1 (vector 2 \"x\")) (list 1 (vector 2 \"x\")))", "#t");
    ("equal?", "(equal? (vector 1) (vector 2))", "#f");
    ("equal?", "(equal? 1)", "stuck: equal?: expected 2 arguments, got 1");
    ("not", "(not #f)", "#t");
    ("not", "(not 0)", "#f");
    ("not", "(not)", "stuck: not: expected 1 arguments, got 0");
    ("pair?", "(pair? (cons 1 2))", "#t");
    ("pair?", "(pair? '())", "#f");
    ("pair?", "(pair? 1 2)", "stuck: pair?: expected 1 arguments, got 2");
    ("null?", "(null? '())", "#t");
    ("null?", "(null?)", "stuck: null?: expected 1 arguments, got 0");
    ("boolean?", "(boolean? #f)", "#t");
    ("boolean?", "(boolean?)", "stuck: boolean?: expected 1 arguments, got 0");
    ("symbol?", "(symbol? 'a)", "#t");
    ("symbol?", "(symbol? 'a 'b)", "stuck: symbol?: expected 1 arguments, got 2");
    ("number?", "(number? 1)", "#t");
    ("number?", "(number?)", "stuck: number?: expected 1 arguments, got 0");
    ("integer?", "(integer? \"1\")", "#f");
    ("integer?", "(integer?)", "stuck: integer?: expected 1 arguments, got 0");
    ("string?", "(string? \"s\")", "#t");
    ("string?", "(string?)", "stuck: string?: expected 1 arguments, got 0");
    ("char?", "(char? #\\a)", "#t");
    ("char?", "(char?)", "stuck: char?: expected 1 arguments, got 0");
    ("vector?", "(vector? (vector))", "#t");
    ("vector?", "(vector?)", "stuck: vector?: expected 1 arguments, got 0");
    ("procedure?", "(procedure? car)", "#t");
    ("procedure?", "(procedure? (lambda (x) x))", "#t");
    ("procedure?", "(call/cc procedure?)", "#t");
    ("procedure?", "(procedure? 'car)", "#f");
    ("procedure?", "(procedure?)", "stuck: procedure?: expected 1 arguments, got 0");
    ("cons", "(cons 1 2)", "(1 . 2)");
    ("cons", "(cons 1)", "stuck: cons: expected 2 arguments, got 1");
    ("car", "(car (list 1 2))", "1");
    ("car", "(car 5)", "stuck: car: expected pair, got number");
    ("cdr", "(cdr (list 1 2))", "(2)");
    ("cdr", "(cdr '())", "stuck: cdr: expected pair, got empty list");
    ("set-car!", "(let ((p (cons 1 2))) (set-car! p 'x) p)", "(x . 2)");
    ("set-car!", "(set-car! '() 1)", "stuck: set-car!: expected pair, got empty list");
    ("set-cdr!", "(let ((p (cons 1 2))) (set-cdr! p (list 3)) p)", "(1 3)");
    ("set-cdr!", "(set-cdr! (cons 1 2))", "stuck: set-cdr!: expected 2 arguments, got 1");
    ("list", "(list 1 2 3)", "(1 2 3)");
    ("list", "(list)", "()");
    ("make-vector", "(make-vector 2 'a)", "#(a a)");
    ("make-vector", "(make-vector 1)", "#(#!unspecified)");
    ("make-vector", "(make-vector -1)", "stuck: make-vector: negative length");
    ("make-vector", "(make-vector)", "stuck: make-vector: expected 1 or 2 arguments");
    ("vector", "(vector 1 'a #t)", "#(1 a #t)");
    ("vector", "(vector)", "#()");
    ("vector-length", "(vector-length (vector 1 2))", "2");
    ("vector-length", "(vector-length (list 1))", "stuck: vector-length: expected vector, got pair");
    ("vector-ref", "(vector-ref (vector 1 2) 1)", "2");
    ("vector-ref", "(vector-ref (vector 1) 3)", "stuck: vector-ref: index out of range");
    ("vector-ref", "(vector-ref (vector 1) 'a)", "stuck: vector-ref: expected number, got symbol");
    ("vector-set!", "(let ((v (make-vector 2 0))) (vector-set! v 1 9) v)", "#(0 9)");
    ("vector-set!", "(vector-set! (vector 1) 1 0)", "stuck: vector-set!: index out of range");
    ("vector-set!", "(vector-set! (vector 1) 0)", "stuck: vector-set!: expected 3 arguments, got 2");
    ("vector-fill!", "(let ((v (vector 1 2))) (vector-fill! v 'z) v)", "#(z z)");
    ("vector-fill!", "(vector-fill! 1 2)", "stuck: vector-fill!: expected vector, got number");
    ("string-length", "(string-length \"abc\")", "3");
    ("string-length", "(string-length 'abc)", "stuck: string-length: expected string, got symbol");
    ("string-ref", "(string-ref \"abc\" 1)", "#\\b");
    ("string-ref", "(string-ref \"abc\" 3)", "stuck: string-ref: index out of range");
    ("string-append", "(string-append \"a\" \"b\" \"c\")", "\"abc\"");
    ("string-append", "(string-append \"a\" 1)", "stuck: string-append: expected string, got number");
    ("substring", "(substring \"hello\" 1 3)", "\"el\"");
    ("substring", "(substring \"abc\" 2 1)", "stuck: substring: bad range");
    ("string=?", "(string=? \"a\" \"a\")", "#t");
    ("string=?", "(string=? \"a\" 'a)", "stuck: string=?: expected string, got symbol");
    ("string<?", "(string<? \"a\" \"b\")", "#t");
    ("string<?", "(string<? \"a\")", "stuck: string<?: expected 2 arguments, got 1");
    ("string->symbol", "(string->symbol \"abc\")", "abc");
    ("string->symbol", "(string->symbol 1)", "stuck: string->symbol: expected string, got number");
    ("symbol->string", "(symbol->string 'abc)", "\"abc\"");
    ("symbol->string", "(symbol->string \"abc\")", "stuck: symbol->string: expected symbol, got string");
    ("string->list", "(string->list \"ab\")", "(#\\a #\\b)");
    ("string->list", "(string->list 'a)", "stuck: string->list: expected string, got symbol");
    ("char->integer", "(char->integer #\\A)", "65");
    ("char->integer", "(char->integer 65)", "stuck: char->integer: expected character, got number");
    ("integer->char", "(integer->char 97)", "#\\a");
    ("integer->char", "(integer->char 256)", "stuck: integer->char: out of range");
    ("char=?", "(char=? #\\a #\\a)", "#t");
    ("char=?", "(char=? #\\a)", "stuck: char=?: expected 2 arguments, got 1");
    ("char<?", "(char<? #\\a #\\b)", "#t");
    ("char<?", "(char<? #\\a \"b\")", "stuck: char<?: expected character, got string");
    ("display", "(display \"x\")", "#!unspecified");
    ("display", "(display)", "stuck: display: expected 1 arguments, got 0");
    ("write", "(write 'x)", "#!unspecified");
    ("write", "(write 1 2)", "stuck: write: expected 1 arguments, got 2");
    ("newline", "(newline)", "#!unspecified");
    ("newline", "(newline 1)", "stuck: newline: expected 0 arguments, got 1");
    ("error", "(error \"boom\" 'a 1 \"s\")", "stuck: error: boom a 1 s");
  ]

let test_primitives_agree () =
  List.iter (fun (_, src, expected) -> check_everywhere src expected) primitive_rows

(* [list] and [vector] take any arguments, so they have no error row;
   [error] never answers. *)
let no_error_row = [ "list"; "vector" ]
let no_answer_row = [ "error" ]

let test_every_primitive_covered () =
  let is_stuck expected = String.starts_with ~prefix:"stuck: " expected in
  let has name p =
    List.exists (fun (n, _, expected) -> n = name && p expected) primitive_rows
  in
  List.iter
    (fun name ->
      if not (List.mem name [ "apply"; "call-with-current-continuation"; "call/cc" ])
      then begin
        if not (List.mem name no_answer_row || has name (fun e -> not (is_stuck e)))
        then Alcotest.failf "%s has no answer row" name;
        if not (List.mem name no_error_row || has name is_stuck) then
          Alcotest.failf "%s has no error row" name
      end)
    (Prim.names ())

let test_variadic () =
  check "rest all" "((lambda args args) 1 2 3)" "(1 2 3)";
  check "rest empty" "((lambda (a . r) r) 1)" "()";
  check "rest some" "((lambda (a . r) (cons a r)) 1 2 3)" "(1 2 3)";
  check_stuck "rest under" "((lambda (a b . r) r) 1)" "arity"

let test_apply () =
  check "apply basic" "(apply + '(1 2 3))" "6";
  check "apply spread" "(apply + 1 2 '(3 4))" "10";
  check "apply closure" "(apply (lambda (a b) (- a b)) '(10 4))" "6";
  check "apply apply" "(apply apply (list + '(1 2)))" "3"

let test_call_cc () =
  check "no escape" "(call/cc (lambda (k) 42))" "42";
  check "escape" "(+ 1 (call/cc (lambda (k) (k 10) 999)))" "11";
  check "escape skips work" "(call/cc (lambda (k) (+ 1 (k 'jumped))))" "jumped";
  check "long name" "(call-with-current-continuation (lambda (k) (k 1)))" "1";
  check "stored continuation"
    "(define saved #f)
     (define result (+ 1 (call/cc (lambda (k) (set! saved k) 1))))
     (if saved
         (let ((k saved))
           (set! saved #f)
           (k 41))
         result)"
    "42";
  check_stuck "continuation arity" "(call/cc (lambda (k) (k 1 2)))" "1 value"

let test_output () =
  let t = M.create_with M.Config.default in
  let r =
    M.exec_string t "(display 'hello) (newline) (display (list 1 2)) 'done"
  in
  (match r.M.outcome with
  | M.Done { answer; _ } -> Alcotest.(check string) "answer" "done" answer
  | _ -> Alcotest.fail "expected Done");
  Alcotest.(check string) "output" "hello\n(1 2)" r.M.output

let test_display_vs_write () =
  let t = M.create_with M.Config.default in
  let r = M.exec_string t "(display \"a\\nb\") (write \"a\\nb\") 0" in
  Alcotest.(check string) "display raw, write escaped" "a\nb\"a\\nb\"" r.M.output

let test_fuel () =
  let t = M.create_with M.Config.default in
  let r =
    M.exec_string
      ~opts:(M.Run_opts.make ~fuel:100 ())
      t "(define (spin) (spin)) (spin)"
  in
  (match r.M.outcome with
  | M.Aborted { reason = Res.Out_of_fuel { limit }; steps; _ } ->
      Alcotest.(check int) "abort carries the limit" 100 limit;
      Alcotest.(check int) "stopped at the limit" 100 steps
  | _ -> Alcotest.fail "expected Aborted (Out_of_fuel)");
  Alcotest.(check int) "result steps" 100 r.M.steps

(* The [`Approximate] policy only collects once tracked space overshoots
   the running peak by 12.5% plus 64 words, so its reported peak may
   undershoot the [`Exact] sup by at most that much — and never
   overshoots it (collections cannot raise live space). *)
let test_approximate_gc_bound () =
  let src =
    "(define (build n) (if (zero? n) '() (cons n (build (- n 1))))) (build 200)"
  in
  let peak policy =
    let t = M.create_with M.Config.default in
    let r =
      M.exec_string ~opts:(M.Run_opts.make ~gc_policy:policy ()) t src
    in
    match r.M.outcome with
    | M.Done _ -> M.peak_space r
    | _ -> Alcotest.fail "build run failed"
  in
  let exact = peak `Exact and approx = peak `Approximate in
  Alcotest.(check bool)
    (Printf.sprintf "approx %d never above exact %d" approx exact)
    true (approx <= exact);
  Alcotest.(check bool)
    (Printf.sprintf "approx %d within 12.5%%+64 of exact %d" approx exact)
    true
    (approx >= exact - (exact / 8) - 64)

let test_perm_policies () =
  (* order-insensitive program: same answer under every policy *)
  let src = "(define (f a b c) (- a (quotient b c))) (f 10 9 3)" in
  check "ltr" src "7";
  check ~perm:M.Right_to_left "rtl" src "7";
  check ~perm:(M.Seeded 7) "seeded" src "7";
  (* order-sensitive program exposes the chosen permutation *)
  let effects =
    "(define order '())
     (define (note! x) (set! order (cons x order)) x)
     (+ (note! 1) (note! 2))
     (reverse order)"
  in
  check "ltr order" effects "(1 2)";
  check ~perm:M.Right_to_left "rtl order" effects "(2 1)"

let test_stack_policies () =
  (* A closure over a stack-allocated variable escapes: Algol deletion
     would dangle (stuck); Safe_deletion keeps the binding. *)
  let escaping = "(define (make n) (lambda () n)) ((make 5))" in
  check ~variant:M.Stack ~stack_policy:M.Safe_deletion "safe deletion" escaping "5";
  check_stuck ~variant:M.Stack ~stack_policy:M.Algol "algol dangles" escaping
    "dangling";
  (* Algol-like code works under the Algol policy when no closure
     outlives its frame. Note that even (define (g x) ...) makes the
     resulting closure capture its own letrec binding, so the Algol
     policy rejects programs whose *value* is a defined procedure —
     the deletion strategy really is that restrictive (§5). *)
  check ~variant:M.Stack ~stack_policy:M.Algol "algol ok on non-escaping"
    "((lambda (x) (* 2 x)) 3)" "6";
  check_stuck ~variant:M.Stack ~stack_policy:M.Algol
    "algol rejects escaping define" "(define (g x) (* 2 x)) g" "dangling"

let test_variant_answers_each () =
  List.iter
    (fun v ->
      check ~variant:v
        (M.variant_name v ^ " computes fact")
        "(define (fact n) (if (zero? n) 1 (* n (fact (- n 1))))) (fact 6)" "720")
    M.all_variants

let test_eval_and_define_global () =
  let t = M.create_with M.Config.default in
  (match M.define_global t "double" (E.expression_of_string "(lambda (x) (* 2 x))") with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  (match M.eval_global t (E.expression_of_string "(double 21)") with
  | Ok (T.Int z, _) ->
      Alcotest.(check string) "global usable" "42" (Tailspace_bignum.Bignum.to_string z)
  | Ok _ -> Alcotest.fail "expected number"
  | Error m -> Alcotest.fail m);
  (* recursive global *)
  (match
     M.define_global t "count"
       (E.expression_of_string "(lambda (n) (if (zero? n) 'zero (count (- n 1))))")
   with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  match M.eval_global t (E.expression_of_string "(count 5)") with
  | Ok (T.Sym s, _) -> Alcotest.(check string) "recursion" "zero" s
  | _ -> Alcotest.fail "expected symbol"

let test_run_program_convention () =
  let t = M.create_with M.Config.default in
  let program = E.program_of_string "(define (f n) (* n n)) f" in
  let input = Tailspace_ast.Ast.(Quote (C_int (Tailspace_bignum.Bignum.of_int 9))) in
  match (M.exec_program t ~program ~input).M.outcome with
  | M.Done { answer; _ } -> Alcotest.(check string) "squares" "81" answer
  | _ -> Alcotest.fail "expected Done"

let test_promises () =
  check "delay is lazy"
    "(define p (delay (error \"should not run\"))) 0" "0";
  check "force computes" "(force (delay (* 6 7)))" "42";
  check "force memoizes"
    "(define count 0)
     (define p (delay (begin (set! count (+ count 1)) count)))
     (force p) (force p) (force p)"
    "1";
  check "promises are values"
    "(define p (delay 10)) (list (force p) (force p))" "(10 10)"

let test_random_deterministic () =
  let one () = answer "(list (random 10) (random 10) (random 10))" in
  Alcotest.(check string) "same seed, same stream" (one ()) (one ())

let test_prelude_procedures () =
  check "length" "(length '(a b c))" "3";
  check "append" "(append '(1 2) '(3) '(4 5))" "(1 2 3 4 5)";
  check "reverse" "(reverse '(1 2 3))" "(3 2 1)";
  check "map" "(map (lambda (x) (* x x)) '(1 2 3))" "(1 4 9)";
  check "filter" "(filter odd? '(1 2 3 4 5))" "(1 3 5)";
  check "fold-left" "(fold-left - 0 '(1 2 3))" "-6";
  check "fold-right" "(fold-right cons '() '(1 2))" "(1 2)";
  check "assq" "(assq 'b '((a 1) (b 2)))" "(b 2)";
  check "member" "(member '(1) '((0) (1) (2)))" "((1) (2))";
  check "memv" "(memv 2 '(1 2 3))" "(2 3)";
  check "list-tail" "(list-tail '(a b c d) 2)" "(c d)";
  check "list->vector" "(list->vector '(1 2))" "#(1 2)";
  check "vector->list" "(vector->list (vector 'a 'b))" "(a b)";
  check "gcd" "(gcd 12 18 30)" "6";
  check "list?" "(list? '(1 2))" "#t";
  check "list? improper" "(list? (cons 1 2))" "#f";
  check "for-each"
    "(define acc 0) (for-each (lambda (x) (set! acc (+ acc x))) '(1 2 3)) acc" "6"

let test_equivalence_predicates () =
  check "eqv? numbers" "(eqv? 100000000000000000000 100000000000000000000)" "#t";
  check "eqv? symbols" "(eqv? 'a 'a)" "#t";
  check "eqv? distinct pairs" "(eqv? (cons 1 2) (cons 1 2))" "#f";
  check "eqv? same pair" "(let ((p (cons 1 2))) (eqv? p p))" "#t";
  check "equal? deep" "(equal? (list 1 (vector 2 3)) (list 1 (vector 2 3)))" "#t";
  check "equal? differs" "(equal? '(1 2) '(1 3))" "#f";
  check "eq? procedures" "(let ((f (lambda (x) x))) (eq? f f))" "#t";
  check "eq? distinct closures" "(eq? (lambda (x) x) (lambda (x) x))" "#f"

let () =
  Alcotest.run "machine"
    [
      ( "evaluation",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "closures" `Quick test_closures;
          Alcotest.test_case "recursion" `Quick test_recursion;
          Alcotest.test_case "data" `Quick test_data;
          Alcotest.test_case "cyclic answers finite" `Quick test_cyclic_answer_is_finite;
          Alcotest.test_case "letrec" `Quick test_letrec_semantics;
          Alcotest.test_case "variadic" `Quick test_variadic;
          Alcotest.test_case "apply" `Quick test_apply;
          Alcotest.test_case "call/cc" `Quick test_call_cc;
          Alcotest.test_case "prelude" `Quick test_prelude_procedures;
          Alcotest.test_case "eqv/equal" `Quick test_equivalence_predicates;
        ] );
      ( "machinery",
        [
          Alcotest.test_case "stuck states" `Quick test_stuck_states;
          Alcotest.test_case "primitives agree across engines" `Quick
            test_primitives_agree;
          Alcotest.test_case "every primitive has rows" `Quick
            test_every_primitive_covered;
          Alcotest.test_case "output" `Quick test_output;
          Alcotest.test_case "display vs write" `Quick test_display_vs_write;
          Alcotest.test_case "fuel" `Quick test_fuel;
          Alcotest.test_case "approximate gc bound" `Quick
            test_approximate_gc_bound;
          Alcotest.test_case "perm policies" `Quick test_perm_policies;
          Alcotest.test_case "stack policies" `Quick test_stack_policies;
          Alcotest.test_case "all variants run" `Quick test_variant_answers_each;
          Alcotest.test_case "globals" `Quick test_eval_and_define_global;
          Alcotest.test_case "run_program" `Quick test_run_program_convention;
          Alcotest.test_case "random deterministic" `Quick test_random_deterministic;
          Alcotest.test_case "promises" `Quick test_promises;
        ] );
    ]
