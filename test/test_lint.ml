(* Tests for dream.lint: each rule fires on its positive snippet with the
   right rule id and line, stays silent on the negative snippet and out of
   its directory scope; [@lint.allow] suppresses exactly one finding and
   unused allows are themselves findings; reports round-trip through
   Dream_obs.Json. *)

module Baseline = Dream_lint.Baseline
module Engine = Dream_lint.Engine
module Finding = Dream_lint.Finding
module Report = Dream_lint.Report
module Rules = Dream_lint.Rules
module Json = Dream_obs.Json

let lint ?rules ~path src = Engine.lint_sources ?rules [ (path, src) ]

let rule_ids findings = List.map (fun f -> f.Finding.rule) findings

let only id =
  match Rules.find id with
  | Some r -> [ r ]
  | None -> Alcotest.failf "no such rule %s" id

let check_fires ~rule ~line ~path src =
  match lint ~path src with
  | [ f ] ->
    Alcotest.(check string) "rule id" rule f.Finding.rule;
    Alcotest.(check int) "line" line f.Finding.line;
    Alcotest.(check string) "file" path f.Finding.file
  | fs ->
    Alcotest.failf "expected exactly one %s finding, got %d: %s" rule (List.length fs)
      (String.concat "; " (rule_ids fs))

let check_silent ?rules ~path src =
  match lint ?rules ~path src with
  | [] -> ()
  | fs -> Alcotest.failf "expected no findings, got: %s" (String.concat "; " (rule_ids fs))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ---- determinism-random ---- *)

let test_random_fires () =
  check_fires ~rule:"determinism-random" ~line:2 ~path:"lib/fake.ml"
    "let a = 1\nlet b = Random.int 5\n";
  check_fires ~rule:"determinism-random" ~line:1 ~path:"bench/fake.ml"
    "let b = Stdlib.Random.float 1.0\n";
  check_fires ~rule:"determinism-random" ~line:1 ~path:"lib/fake.ml"
    "let s = Random.State.make [| 1 |]\n"

let test_random_module_paths () =
  (* Aliasing or opening the module is the same violation. *)
  check_fires ~rule:"determinism-random" ~line:1 ~path:"lib/fake.ml" "module R = Random\n";
  check_fires ~rule:"determinism-random" ~line:1 ~path:"lib/fake.ml"
    "open Random\nlet x = 1\n"

let test_random_silent () =
  check_silent ~path:"lib/fake.ml" "let b = Dream_util.Rng.int rng 5\n";
  (* Unrelated module with a Random submodule is not Stdlib.Random. *)
  check_silent ~path:"lib/fake.ml" "let b = My.Random.int 5\n" |> ignore

(* ---- determinism-clock ---- *)

let test_clock_fires () =
  check_fires ~rule:"determinism-clock" ~line:1 ~path:"lib/fake.ml" "let t = Sys.time ()\n";
  check_fires ~rule:"determinism-clock" ~line:2 ~path:"test/fake.ml"
    "let a = 0\nlet t = Unix.gettimeofday ()\n";
  check_fires ~rule:"determinism-clock" ~line:1 ~path:"lib/fake.ml" "let t = Unix.time ()\n"

let test_clock_silent () =
  check_silent ~path:"lib/fake.ml" "let t = Clock.now_ms clock\n";
  check_silent ~path:"lib/fake.ml" "let t = Sys.file_exists \"x\"\n"

(* ---- determinism-gc ---- *)

let test_gc_fires () =
  check_fires ~rule:"determinism-gc" ~line:1 ~path:"lib/fake.ml"
    "let s = Gc.quick_stat ()\n";
  check_fires ~rule:"determinism-gc" ~line:2 ~path:"bench/fake.ml"
    "let a = 0\nlet () = Gc.compact ()\n";
  check_fires ~rule:"determinism-gc" ~line:1 ~path:"lib/fake.ml" "module G = Gc\n"

let test_gc_silent () =
  check_silent ~path:"lib/fake.ml" "let r = Gc_stats.read src\n";
  check_silent ~path:"lib/fake.ml" "let r = Dream_obs.Gc_stats.read src\n";
  (* An unrelated module with a Gc submodule is not Stdlib.Gc. *)
  check_silent ~path:"lib/fake.ml" "let s = My.Gc.stat ()\n"

(* ---- float-equality ---- *)

let test_float_equality_fires () =
  check_fires ~rule:"float-equality" ~line:1 ~path:"lib/fake.ml" "let b = x = 1.0\n";
  check_fires ~rule:"float-equality" ~line:1 ~path:"lib/fake.ml" "let b = x <> y *. 2.0\n";
  check_fires ~rule:"float-equality" ~line:1 ~path:"lib/fake.ml"
    "let c = compare x (float_of_int n)\n";
  check_fires ~rule:"float-equality" ~line:1 ~path:"lib/fake.ml"
    "let b = (x : float) = y\n"

let test_float_equality_silent () =
  check_silent ~path:"lib/fake.ml" "let b = x = 1\n";
  (* Orderings are fine; epsilon comparisons are the point. *)
  check_silent ~path:"lib/fake.ml" "let b = x <= 1.0\n";
  check_silent ~path:"lib/fake.ml" "let b = Float.abs (x -. y) < 1e-9\n";
  (* Deliberate exact comparisons in test/ (determinism checks) are policy. *)
  check_silent ~path:"test/fake.ml" "let b = x = 1.0\n"

(* ---- exception-hygiene ---- *)

let test_exception_fires () =
  check_fires ~rule:"exception-hygiene" ~line:1 ~path:"lib/fake.ml"
    "let f () = try g () with _ -> 0\n";
  check_fires ~rule:"exception-hygiene" ~line:2 ~path:"lib/fake.ml"
    "let f () =\n  match g () with x -> x | exception _ -> 0\n"

let test_exception_silent () =
  check_silent ~path:"lib/fake.ml" "let f () = try g () with Not_found -> 0\n";
  check_silent ~path:"lib/fake.ml"
    "let f () = try g () with exn -> log exn; raise exn\n";
  (* Out of scope: the rule is a lib/ policy. *)
  check_silent ~path:"bin/fake.ml" "let f () = try g () with _ -> 0\n"

(* ---- partiality ---- *)

let test_partiality_fires () =
  check_fires ~rule:"partiality" ~line:1 ~path:"lib/fake.ml" "let x = List.hd xs\n";
  check_fires ~rule:"partiality" ~line:1 ~path:"lib/fake.ml" "let x = List.nth xs 3\n";
  check_fires ~rule:"partiality" ~line:1 ~path:"lib/fake.ml" "let x = Option.get o\n";
  (* Bare references count too (partial application, eta). *)
  check_fires ~rule:"partiality" ~line:1 ~path:"lib/fake.ml" "let f = List.tl\n"

let test_partiality_silent () =
  check_silent ~path:"lib/fake.ml"
    "let x = match xs with [] -> None | x :: _ -> Some x\n";
  check_silent ~path:"bin/fake.ml" "let x = List.hd xs\n"

(* ---- stdout-hygiene ---- *)

let test_stdout_fires () =
  check_fires ~rule:"stdout-hygiene" ~line:1 ~path:"lib/fake.ml"
    "let () = print_endline \"hi\"\n";
  check_fires ~rule:"stdout-hygiene" ~line:1 ~path:"lib/fake.ml"
    "let () = Printf.printf \"%d\" 3\n";
  check_fires ~rule:"stdout-hygiene" ~line:1 ~path:"lib/fake.ml"
    "let () = Format.printf \"%d\" 3\n"

let test_stdout_silent () =
  check_silent ~path:"lib/fake.ml" "let () = Format.fprintf ppf \"%d\" 3\n";
  check_silent ~path:"lib/fake.ml" "let s = Printf.sprintf \"%d\" 3\n";
  check_silent ~path:"bin/fake.ml" "let () = print_endline \"hi\"\n"

(* ---- mli-coverage ---- *)

let with_temp_lib f =
  let dir = Filename.temp_dir "dream_lint" "" in
  let libdir = Filename.concat dir "lib" in
  Sys.mkdir libdir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun e -> Sys.remove (Filename.concat libdir e)) (Sys.readdir libdir);
      Sys.rmdir libdir;
      Sys.rmdir dir)
    (fun () -> f libdir)

let write path contents = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let test_mli_coverage () =
  with_temp_lib (fun libdir ->
      let ml = Filename.concat libdir "a.ml" in
      write ml "let x = 1\n";
      (match Engine.lint_files ~rules:(only "mli-coverage") [ ml ] with
      | [ f ] ->
        Alcotest.(check string) "rule id" "mli-coverage" f.Finding.rule;
        Alcotest.(check int) "line" 1 f.Finding.line
      | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
      write (ml ^ "i") "val x : int\n";
      Alcotest.(check int) "silent with sibling mli" 0
        (List.length (Engine.lint_files ~rules:(only "mli-coverage") [ ml ])))

(* ---- suppression ---- *)

let test_suppression_silences_exactly_one () =
  let src =
    "let a = Random.int 1\nlet b = (Random.int 2 [@lint.allow \"determinism-random\"])\n"
  in
  match lint ~path:"lib/fake.ml" src with
  | [ f ] ->
    Alcotest.(check string) "surviving rule" "determinism-random" f.Finding.rule;
    Alcotest.(check int) "unsuppressed line" 1 f.Finding.line
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_suppression_on_binding () =
  check_silent ~path:"lib/fake.ml"
    "let a = Random.int 1 [@@lint.allow \"determinism-random\"]\n"

let test_file_level_allow () =
  (* A floating allow silences the whole file and owes no finding. *)
  check_silent ~path:"lib/fake.ml"
    "[@@@lint.allow \"determinism-random\"]\nlet a = Random.int 1\nlet b = Random.int 2\n"

let test_suppression_is_per_rule () =
  (* An allow for one rule does not silence another at the same site; the
     clock finding survives and the mismatched allow is itself unused. *)
  match
    lint ~path:"lib/fake.ml" "let t = Sys.time () [@@lint.allow \"partiality\"]\n"
  with
  | fs ->
    Alcotest.(check (list string))
      "clock finding plus unused allow"
      [ "determinism-clock"; "unused-suppression" ]
      (List.sort String.compare (rule_ids fs))

let test_unused_suppression () =
  match lint ~path:"lib/fake.ml" "let a = (5 [@lint.allow \"determinism-random\"])\n" with
  | [ f ] -> Alcotest.(check string) "rule id" "unused-suppression" f.Finding.rule
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_unknown_rule_in_allow () =
  match lint ~path:"lib/fake.ml" "let a = (5 [@lint.allow \"no-such-rule\"])\n" with
  | [ f ] ->
    Alcotest.(check string) "rule id" "unused-suppression" f.Finding.rule;
    Alcotest.(check bool) "names the bad rule" true
      (contains ~sub:"no-such-rule" f.Finding.message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_malformed_allow_payload () =
  match lint ~path:"lib/fake.ml" "let a = (5 [@lint.allow 42])\n" with
  | [ f ] -> Alcotest.(check string) "rule id" "unused-suppression" f.Finding.rule
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_unused_check_respects_rule_subset () =
  (* With only determinism-random active, an allow for a rule that did not
     run must not be reported as unused. *)
  check_silent ~path:"lib/fake.ml"
    ~rules:(only "determinism-random")
    "let t = Sys.time () [@@lint.allow \"determinism-clock\"]\n"

(* ---- parse errors ---- *)

let test_parse_error () =
  match lint ~path:"lib/fake.ml" "let = = =\n" with
  | [ f ] ->
    Alcotest.(check string) "rule id" Engine.parse_error_rule f.Finding.rule;
    Alcotest.(check bool) "severity" true (f.Finding.severity = Finding.Error)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* ---- registry ---- *)

let test_registry () =
  Alcotest.(check int) "eleven rules" 11 (List.length Rules.all);
  Alcotest.(check int) "unique ids" (List.length Rules.ids)
    (List.length (List.sort_uniq String.compare Rules.ids));
  List.iter
    (fun id ->
      match Rules.find id with
      | Some r -> Alcotest.(check string) "find returns the rule" id r.Rules.id
      | None -> Alcotest.failf "registry lookup failed for %s" id)
    Rules.ids

(* ---- hot-path-alloc (interprocedural) ---- *)

let hot ?(rules = only "hot-path-alloc") sources = Engine.lint_sources ~rules sources

let check_hot_fires ~sub src =
  match hot [ ("lib/fake.ml", src) ] with
  | [ f ] ->
    Alcotest.(check string) "rule id" "hot-path-alloc" f.Finding.rule;
    Alcotest.(check bool) "severity" true (f.Finding.severity = Finding.Error);
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions %S" f.Finding.message sub)
      true
      (contains ~sub f.Finding.message)
  | fs ->
    Alcotest.failf "expected exactly one hot-path-alloc finding, got %d: %s"
      (List.length fs)
      (String.concat "; " (List.map (fun f -> f.Finding.message) fs))

let check_hot_silent src =
  match hot [ ("lib/fake.ml", src) ] with
  | [] -> ()
  | fs -> Alcotest.failf "expected no findings, got: %s" (String.concat "; " (rule_ids fs))

let test_hot_alloc_classes_fire () =
  check_hot_fires ~sub:"tuple construction" "let[@hot] tick () = (1, 2)\n";
  check_hot_fires ~sub:"record construction"
    "type r = { a : int }\nlet[@hot] tick () = { a = 1 }\n";
  (* A cons spine is one list, one finding — not one per cell. *)
  check_hot_fires ~sub:"list construction" "let[@hot] tick () = [ 1; 2; 3 ]\n";
  check_hot_fires ~sub:"array literal" "let[@hot] tick () = [| 1; 2 |]\n";
  (* A constructor's tuple payload is part of the constructor block. *)
  check_hot_fires ~sub:"variant Some" "let[@hot] tick a b = Some (a, b)\n";
  check_hot_fires ~sub:"closure construction"
    "let[@hot] tick xs = let f = fun x -> x + 1 in f (List.length xs)\n";
  check_hot_fires ~sub:"builds a fresh copy" "let[@hot] tick xs ys = xs @ ys\n";
  check_hot_fires ~sub:"boxes its float result" "let[@hot] tick n = float_of_int n\n";
  check_hot_fires ~sub:"allocates format machinery"
    "let[@hot] tick n = Printf.sprintf \"%d\" n\n";
  check_hot_fires ~sub:"List.map allocates its result"
    "let[@hot] tick xs = List.map succ xs\n"

let test_hot_alloc_silent () =
  (* Arithmetic, projections, mutation: no allocation, no finding. *)
  check_hot_silent "let[@hot] tick x = x + 1\n";
  check_hot_silent "let[@hot] tick a i = a.(i) <- a.(i) + 1\n";
  (* Allocation outside the hot set is not this rule's business. *)
  check_hot_silent "let cold () = (1, 2)\n";
  (* Argumentless constructors are immediates. *)
  check_hot_silent "let[@hot] tick () = None\n"

let test_hot_alloc_cross_module_chain () =
  let sources =
    [
      ("lib/a/entry.ml", "let[@hot] tick () = Helper.build ()\n");
      ("lib/a/helper.ml", "let build () = (1, 2)\n");
    ]
  in
  match hot sources with
  | [ f ] ->
    Alcotest.(check string) "finding lands in the callee" "lib/a/helper.ml" f.Finding.file;
    Alcotest.(check bool) "witness chain in message" true
      (contains ~sub:"Entry.tick -> Helper.build" f.Finding.message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* A binding that is no function runs once, when its module initialises:
   reading it on a hot path calls nothing, while a function still is a
   call. *)
let test_hot_toplevel_value_is_not_a_call () =
  check_hot_silent "let table = [ (1, 2) ]\nlet[@hot] tick () = List.length table\n";
  check_hot_fires ~sub:"tuple construction"
    "let build () = (1, 2)\nlet[@hot] tick () = fst (build ())\n"

(* A toplevel partial application holds a closure: applying it, directly
   or through a pipe, still calls the function it was made from. *)
let test_hot_toplevel_closure_is_a_call () =
  List.iter
    (fun tick ->
      let src = "let g a b = (a, b)\nlet f = g 1\n" ^ tick in
      let fs = hot [ ("lib/fake.ml", src) ] in
      if not (List.exists (fun f -> contains ~sub:"tuple construction" f.Finding.message) fs)
      then
        Alcotest.failf "%S: g's tuple is not reported: %s" tick
          (String.concat "; " (List.map (fun f -> f.Finding.message) fs)))
    [ "let[@hot] tick x = f x\n"; "let[@hot] tick x = x |> f\n"; "let[@hot] tick x = f @@ x\n" ]

let test_hot_alloc_partial_application () =
  check_hot_fires ~sub:"partial application"
    "let add3 a b c = a + b + c\nlet[@hot] tick x = add3 x 1\n"

let test_alloc_allow_suppresses () =
  check_hot_silent
    "let[@hot] tick a b = (a, b) [@alloc.allow \"boxed pair is the public API\"]\n"

let test_alloc_allow_unused () =
  (* An allow on a site the pass never reaches must be cleaned up. *)
  match hot [ ("lib/fake.ml", "let cold () = (1, 2) [@alloc.allow \"stale\"]\n") ] with
  | [ f ] ->
    Alcotest.(check string) "rule id" Engine.unused_suppression_rule f.Finding.rule;
    Alcotest.(check bool) "says it suppresses nothing" true
      (contains ~sub:"suppresses nothing" f.Finding.message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_alloc_allow_malformed () =
  (* No reason string: the allow is rejected and the site still fires. *)
  match hot [ ("lib/fake.ml", "let[@hot] tick a b = (a, b) [@alloc.allow]\n") ] with
  | fs ->
    Alcotest.(check (list string))
      "finding plus malformed allow"
      [ "hot-path-alloc"; Engine.unused_suppression_rule ]
      (List.sort String.compare (rule_ids fs))

let test_hot_local_binding_shadows () =
  (* Locally bound [emit]s (two [let]s, a parameter) hide the file's
     allocating two-argument [emit]: no edge to it and no partial
     application of it.  What is left is the two local closures. *)
  let src =
    "let emit w v = (w, v)\n\
     let[@hot] next xs = let emit x = ignore x in List.iter emit xs\n\
     let[@hot] apply emit x = emit x\n\
     let[@hot] call x = let emit y = y + 1 in emit x\n"
  in
  let fs = hot [ ("lib/fake.ml", src) ] in
  Alcotest.(check (list int))
    "the local closures' lines" [ 2; 4 ]
    (List.map (fun f -> f.Finding.line) fs);
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Printf.sprintf "%S is a closure" f.Finding.message)
        true
        (contains ~sub:"closure construction" f.Finding.message))
    fs

let test_hot_let_module_alias () =
  let sources =
    [
      ("lib/a/entry.ml", "let[@hot] tick () = let module H = Helper in H.build ()\n");
      ("lib/a/helper.ml", "let build () = (1, 2)\n");
    ]
  in
  match hot sources with
  | [ f ] ->
    Alcotest.(check string) "finding lands in the callee" "lib/a/helper.ml" f.Finding.file;
    Alcotest.(check bool) "witness chain through the alias" true
      (contains ~sub:"Entry.tick -> Helper.build" f.Finding.message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_lint_allow_of_hot_refused () =
  (* One spelling: hot-path-alloc is allowed with [@alloc.allow] only. *)
  match
    hot [ ("lib/fake.ml", "let[@hot] tick a b = (a, b) [@lint.allow \"hot-path-alloc\"]\n") ]
  with
  | fs -> (
    Alcotest.(check (list string))
      "the site still fires, the allow is refused"
      [ "hot-path-alloc"; Engine.unused_suppression_rule ]
      (List.sort String.compare (rule_ids fs));
    match List.find_opt (fun f -> f.Finding.rule = Engine.unused_suppression_rule) fs with
    | Some f ->
      Alcotest.(check bool) "points at [@alloc.allow]" true
        (contains ~sub:"malformed [@lint.allow]" f.Finding.message
        && contains ~sub:"[@alloc.allow" f.Finding.message)
    | None -> Alcotest.fail "no refusal")

let test_floating_alloc_allow_refused () =
  (* [@alloc.allow] has no file-level form: a floating one, with or
     without a reason, silences nothing and is reported. *)
  List.iter
    (fun attr ->
      let fs = hot [ ("lib/fake.ml", attr ^ "\nlet[@hot] tick a b = (a, b)\n") ] in
      Alcotest.(check (list string))
        (attr ^ ": the site still fires, the allow is refused")
        [ "hot-path-alloc"; Engine.unused_suppression_rule ]
        (List.sort String.compare (rule_ids fs));
      match List.find_opt (fun f -> f.Finding.rule = Engine.unused_suppression_rule) fs with
      | Some f ->
        Alcotest.(check int) (attr ^ ": on the attribute's line") 1 f.Finding.line;
        Alcotest.(check bool)
          (attr ^ ": points at the expression or binding")
          true
          (contains ~sub:"malformed [@@@alloc.allow]" f.Finding.message
          && contains ~sub:"expression or binding" f.Finding.message)
      | None -> Alcotest.fail "no refusal")
    [ "[@@@alloc.allow \"whole file\"]"; "[@@@alloc.allow]" ];
  (* The floating [@@@lint.allow] stays file-wide, as in util/rng.ml. *)
  check_silent
    ~rules:(only "determinism-random" @ only "hot-path-alloc")
    ~path:"lib/fake.ml"
    "[@@@lint.allow \"determinism-random\"]\nlet a = Random.int 1\nlet[@hot] tick x = x + 1\n"

let test_alloc_allow_ignored_by_other_rules () =
  (* A malformed [@alloc.allow] is hot-path-alloc's business only. *)
  List.iter
    (check_silent ~rules:(only "determinism-random") ~path:"lib/fake.ml")
    [
      "let[@hot] tick a b = (a, b) [@alloc.allow]\n";
      "[@@@alloc.allow]\nlet[@hot] tick a b = (a, b)\n";
    ]

(* ---- domain-safety (interprocedural) ---- *)

let domain sources = Engine.lint_sources ~rules:(only "domain-safety") sources

let check_domain_fires ~sub ~path src =
  match domain [ (path, src) ] with
  | [ f ] ->
    Alcotest.(check string) "rule id" "domain-safety" f.Finding.rule;
    Alcotest.(check bool) "severity" true (f.Finding.severity = Finding.Warning);
    Alcotest.(check bool)
      (Printf.sprintf "message %S mentions %S" f.Finding.message sub)
      true
      (contains ~sub f.Finding.message)
  | fs -> Alcotest.failf "expected one domain-safety finding, got %d" (List.length fs)

let check_domain_silent ~path src =
  match domain [ (path, src) ] with
  | [] -> ()
  | fs -> Alcotest.failf "expected no findings, got: %s" (String.concat "; " (rule_ids fs))

let test_domain_safety_fires () =
  check_domain_fires ~sub:"ref cell" ~path:"lib/fake.ml" "let counter = ref 0\n";
  check_domain_fires ~sub:"Hashtbl" ~path:"lib/fake.ml" "let cache = Hashtbl.create 16\n";
  check_domain_fires ~sub:"Buffer" ~path:"lib/fake.ml" "let buf = Buffer.create 80\n";
  check_domain_fires ~sub:"array" ~path:"lib/fake.ml" "let scratch = [| 0; 0 |]\n";
  check_domain_fires ~sub:"mutable" ~path:"lib/fake.ml"
    "type t = { mutable n : int }\nlet state = { n = 0 }\n"

let test_domain_safety_silent () =
  check_domain_silent ~path:"lib/fake.ml" "let x = 42\nlet xs = [ 1; 2 ]\n";
  (* Local mutability inside a function is fine; the rule is about
     module-level sharing. *)
  check_domain_silent ~path:"lib/fake.ml"
    "let f () = let c = ref 0 in incr c; !c\n";
  (* The rule is a lib/ policy. *)
  check_domain_silent ~path:"bin/fake.ml" "let cache = Hashtbl.create 16\n"

let test_domain_safety_suppression () =
  check_domain_silent ~path:"lib/fake.ml"
    "let cache = Hashtbl.create 16 [@@lint.allow \"domain-safety\"]\n"

(* ---- test-only-export (interprocedural) ---- *)

(* [lib/a/m.ml] exports [f] (and [g], used inside the module) next to a
   user of [f] written by [use]. *)
let exports ?(ml = "let g = 1\nlet f = g\n") users =
  Engine.lint_sources ~rules:(only "test-only-export")
    (("lib/a/m.ml", ml) :: ("lib/a/m.mli", "val f : int\n") :: users)

let check_exported ?ml ~why users =
  match exports ?ml users with
  | [ f ] ->
    Alcotest.(check string) "rule id" "test-only-export" f.Finding.rule;
    Alcotest.(check string) "lands at the binding" "lib/a/m.ml" f.Finding.file;
    Alcotest.(check int) "binding line" 2 f.Finding.line;
    Alcotest.(check bool) (Printf.sprintf "message %S says %S" f.Finding.message why) true
      (contains ~sub:why f.Finding.message)
  | fs -> Alcotest.failf "expected one test-only-export finding, got %d" (List.length fs)

let check_used users =
  match exports users with
  | [] -> ()
  | fs -> Alcotest.failf "expected no findings, got: %s" (String.concat "; " (rule_ids fs))

let test_test_only_export_uses () =
  check_used [ ("lib/b/user.ml", "let x = M.f\n") ];
  check_used [ ("bin/main.ml", "let () = print_int Dream_a.M.f\n") ];
  check_used [ ("bin/main.ml", "module N = Dream_a.M\nlet () = print_int N.f\n") ];
  check_used [ ("bin/main.ml", "open Dream_a\nlet () = print_int M.f\n") ];
  check_used [ ("bin/main.ml", "open Dream_a.M\nlet () = print_int f\n") ];
  check_used [ ("bin/main.ml", "let () = print_int Dream_a.M.(f + 1)\n") ];
  check_used [ ("bin/main.ml", "let () = let open Dream_a.M in print_int f\n") ];
  check_used [ ("bin/main.ml", "let () = let module N = Dream_a.M in print_int N.f\n") ];
  check_used [ ("examples/demo.ml", "let () = print_int Dream_a.M.f\n") ];
  check_used [ ("perfbench/replay.ml", "let x = Dream_a.M.f\n") ]

let test_test_only_export_fires () =
  check_exported ~why:"only test/ mentions it"
    [ ("test/test_m.ml", "let () = ignore Dream_a.M.f\n") ];
  check_exported ~why:"no other module mentions it" [];
  (* A mention inside the module itself is not a use by the program. *)
  check_exported ~why:"no other module mentions it" ~ml:"let g = 1\nlet f = g\nlet h = f\n" []

let test_test_only_export_submodule () =
  match
    Engine.lint_sources ~rules:(only "test-only-export")
      [
        ("lib/a/m.ml", "module Sub = struct\n  let h = 1\nend\n");
        ("lib/a/m.mli", "module Sub : sig\n  val h : int\nend\n");
      ]
  with
  | [ f ] -> Alcotest.(check bool) "names Sub.h" true (contains ~sub:"M.Sub.h" f.Finding.message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

(* [let+ x = e in …] is a use of the operator [( let+ )]. *)
let test_test_only_export_binding_operator () =
  let lint users =
    Engine.lint_sources ~rules:(only "test-only-export")
      (("lib/a/m.ml", "let ( let+ ) x f = f x\n")
      :: ("lib/a/m.mli", "val ( let+ ) : 'a -> ('a -> 'b) -> 'b\n")
      :: users)
  in
  (match lint [ ("bin/main.ml", "let () = Dream_a.M.(let+ x = 1 in print_int x)\n") ] with
  | [] -> ()
  | fs -> Alcotest.failf "expected no findings, got: %s" (String.concat "; " (rule_ids fs)));
  match lint [] with
  | [ f ] -> Alcotest.(check bool) "names let+" true (contains ~sub:"let+" f.Finding.message)
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let oracle_ml = "let g = 1\nlet f = g [@@lint.allow \"oracle hook: test/test_m.ml\"]\n"

let test_test_only_export_allow () =
  let test_use = ("test/test_m.ml", "let () = ignore Dream_a.M.f\n") in
  (match exports ~ml:oracle_ml [ test_use ] with
  | [] -> ()
  | fs -> Alcotest.failf "oracle hook not honoured: %s" (String.concat "; " (rule_ids fs)));
  (* Once the program uses the value, the allow suppresses nothing. *)
  let program_use = ("bin/main.ml", "let () = print_int Dream_a.M.f\n") in
  (match exports ~ml:oracle_ml [ test_use; program_use ] with
  | [ f ] -> Alcotest.(check string) "rule id" Engine.unused_suppression_rule f.Finding.rule
  | fs -> Alcotest.failf "expected one unused-suppression, got %d" (List.length fs));
  (* An allow must give its reason and name the test file. *)
  List.iter
    (fun payload ->
      let ml = Printf.sprintf "let g = 1\nlet f = g [@@lint.allow %S]\n" payload in
      Alcotest.(check (list string))
        (payload ^ ": finding plus malformed allow")
        [ "test-only-export"; Engine.unused_suppression_rule ]
        (List.sort String.compare (rule_ids (exports ~ml [ test_use ]))))
    [ "test-only-export"; "oracle hook: bin/main.ml"; "test fake:" ]

(* ---- baseline ratchet ---- *)

let finding_gen =
  QCheck.Gen.(
    let str = string_size ~gen:printable (int_range 0 20) in
    map
      (fun (rule, file, line, col, err, message) ->
        Finding.v ~rule ~file ~line ~col
          ~severity:(if err then Finding.Error else Finding.Warning)
          message)
      (tup6 str str (int_range 1 10000) (int_range 0 500) bool str))

let arbitrary_finding = QCheck.make ~print:(Format.asprintf "%a" Finding.pp) finding_gen

let finding ~rule ~file = Finding.v ~rule ~file ~line:1 ~col:0 ~severity:Finding.Error "x"

let test_baseline_of_findings () =
  let fs =
    [
      finding ~rule:"a" ~file:"lib/x.ml";
      finding ~rule:"a" ~file:"lib/x.ml";
      finding ~rule:"b" ~file:"lib/y.ml";
    ]
  in
  match Baseline.of_findings fs with
  | [ e1; e2 ] ->
    Alcotest.(check int) "counted" 2 e1.Baseline.b_count;
    Alcotest.(check string) "sorted by rule" "a" e1.Baseline.b_rule;
    Alcotest.(check int) "singleton" 1 e2.Baseline.b_count
  | es -> Alcotest.failf "expected two entries, got %d" (List.length es)

let test_baseline_diff () =
  let baseline =
    Baseline.of_findings
      [ finding ~rule:"a" ~file:"lib/x.ml"; finding ~rule:"b" ~file:"lib/y.ml" ]
  in
  let current =
    Baseline.of_findings
      [ finding ~rule:"a" ~file:"lib/x.ml"; finding ~rule:"a" ~file:"lib/x.ml" ]
  in
  let d = Baseline.diff ~baseline ~current in
  (match d.Baseline.fresh with
  | [ g ] ->
    Alcotest.(check string) "grown key" "a" g.Baseline.d_rule;
    Alcotest.(check int) "baseline count" 1 g.Baseline.d_baseline;
    Alcotest.(check int) "current count" 2 g.Baseline.d_current
  | gs -> Alcotest.failf "expected one fresh delta, got %d" (List.length gs));
  match d.Baseline.improved with
  | [ g ] -> Alcotest.(check string) "vanished key" "b" g.Baseline.d_rule
  | gs -> Alcotest.failf "expected one improved delta, got %d" (List.length gs)

let test_baseline_ratchet_refuses_growth () =
  let old_ = Baseline.of_findings [ finding ~rule:"a" ~file:"lib/x.ml" ] in
  let grown =
    Baseline.of_findings
      [ finding ~rule:"a" ~file:"lib/x.ml"; finding ~rule:"a" ~file:"lib/x.ml" ]
  in
  (match Baseline.update ~old_:(Some old_) ~current:grown with
  | Ok _ -> Alcotest.fail "ratchet accepted a grown baseline"
  | Error msg ->
    Alcotest.(check bool) "error names the key" true (contains ~sub:"lib/x.ml" msg));
  (* Bootstrap from nothing and shrink-in-place are both fine. *)
  (match Baseline.update ~old_:None ~current:grown with
  | Ok [ e ] -> Alcotest.(check int) "bootstrap keeps counts" 2 e.Baseline.b_count
  | Ok es -> Alcotest.failf "expected one entry, got %d" (List.length es)
  | Error e -> Alcotest.failf "bootstrap refused: %s" e);
  match Baseline.update ~old_:(Some grown) ~current:old_ with
  | Ok [ e ] -> Alcotest.(check int) "shrunk" 1 e.Baseline.b_count
  | Ok es -> Alcotest.failf "expected one entry, got %d" (List.length es)
  | Error e -> Alcotest.failf "shrink refused: %s" e

let test_baseline_update_keeps_reasons () =
  let old_ =
    [ { Baseline.b_rule = "a"; b_file = "lib/x.ml"; b_count = 2; b_reason = Some "parked" } ]
  in
  let current = Baseline.of_findings [ finding ~rule:"a" ~file:"lib/x.ml" ] in
  match Baseline.update ~old_:(Some old_) ~current with
  | Ok [ e ] ->
    Alcotest.(check int) "count shrunk" 1 e.Baseline.b_count;
    Alcotest.(check (option string)) "reason carried" (Some "parked") e.Baseline.b_reason
  | Ok es -> Alcotest.failf "expected one entry, got %d" (List.length es)
  | Error e -> Alcotest.failf "update refused: %s" e

(* Through the file the CLI writes and reads. *)
let round_trip b =
  let path = Filename.temp_file "dream_lint_baseline" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () -> Result.bind (Baseline.write b ~path) (fun () -> Baseline.read path))

let test_baseline_reason_round_trip () =
  let b =
    [
      { Baseline.b_rule = "a"; b_file = "lib/x.ml"; b_count = 3; b_reason = Some "parked" };
      { Baseline.b_rule = "b"; b_file = "lib/y.ml"; b_count = 1; b_reason = None };
    ]
  in
  match round_trip b with
  | Ok b' -> Alcotest.(check bool) "identical" true (b = b')
  | Error e -> Alcotest.failf "reparse failed: %s" e

(* The committed baseline reads back and writes out as its own bytes. *)
let committed_baseline () =
  if Sys.file_exists "../lint/BASELINE.json" then "../lint/BASELINE.json"
  else "lint/BASELINE.json"

let test_committed_baseline_round_trip () =
  let committed = committed_baseline () in
  let bytes = In_channel.with_open_bin committed In_channel.input_all in
  match Baseline.read committed with
  | Error e -> Alcotest.failf "%s" e
  | Ok b ->
    let path = Filename.temp_file "dream_lint_baseline" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        (match Baseline.write b ~path with Ok () -> () | Error e -> Alcotest.failf "%s" e);
        Alcotest.(check string) "same bytes" bytes
          (In_channel.with_open_bin path In_channel.input_all))

let prop_baseline_json_round_trip =
  QCheck.Test.make ~name:"baseline JSON round-trips through Obs.Json" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 30) arbitrary_finding)
    (fun fs ->
      let b = Baseline.of_findings fs in
      match round_trip b with
      | Ok b' -> b = b'
      | Error _ -> false)

(* A corrupt copy of the committed baseline, read from its file. *)
let fuzz_baseline =
  let with_file text f =
    let path = Filename.temp_file "dream_lint_baseline" ".json" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text);
        f path)
  in
  let write b =
    with_file "" (fun path ->
        match Baseline.write b ~path with
        | Ok () -> In_channel.with_open_bin path In_channel.input_all
        | Error e -> failwith e)
  in
  Json_fuzz.property ~name:"baseline corruption" ~read:(fun text -> with_file text Baseline.read) ~write
    (lazy [ In_channel.with_open_bin (committed_baseline ()) In_channel.input_all ])

let test_debt_snapshot () =
  let fs =
    [
      finding ~rule:"hot-path-alloc" ~file:"lib/x.ml";
      finding ~rule:"hot-path-alloc" ~file:"lib/y.ml";
      finding ~rule:"domain-safety" ~file:"lib/x.ml";
    ]
  in
  let snap = Baseline.debt_snapshot fs in
  Alcotest.(check string) "figure" "lint-debt" snap.Dream_obs.Bench_snapshot.figure;
  let value name =
    match
      List.find_opt
        (fun (m : Dream_obs.Bench_snapshot.metric) -> m.Dream_obs.Bench_snapshot.m_name = name)
        snap.Dream_obs.Bench_snapshot.metrics
    with
    | Some m -> m.Dream_obs.Bench_snapshot.m_value
    | None -> Alcotest.failf "missing metric %s" name
  in
  Alcotest.(check (float 0.0)) "per-rule count" 2.0 (value "debt_hot-path-alloc");
  Alcotest.(check (float 0.0)) "total" 3.0 (value "debt_total")

(* ---- whole-run determinism ---- *)

let test_lint_sources_deterministic () =
  let sources =
    [
      ("lib/a/entry.ml", "let[@hot] tick () = Helper.build ()\nlet cache = Hashtbl.create 4\n");
      ("lib/a/helper.ml", "let build () = (1, 2)\nlet scratch = [| 0 |]\n");
    ]
  in
  let render fs = Format.asprintf "%a" (Report.json ?baseline:None) fs in
  let r1 = render (Engine.lint_sources sources) in
  let r2 = render (Engine.lint_sources (List.rev sources)) in
  Alcotest.(check string) "same report bytes regardless of input order" r1 r2;
  let r3 = render (Engine.lint_sources sources) in
  Alcotest.(check string) "byte-identical across runs" r1 r3

(* ---- tree walk ---- *)

let test_ml_files_under_skips_and_sorts () =
  let dir = Filename.temp_dir "dream_lint_walk" "" in
  let mkdir d = Sys.mkdir d 0o755 in
  let touch parts contents =
    write (List.fold_left Filename.concat dir parts) contents
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> rm dir)
    (fun () ->
      mkdir (Filename.concat dir "sub");
      mkdir (Filename.concat dir "_build");
      mkdir (Filename.concat dir "_opam");
      mkdir (Filename.concat dir ".git");
      touch [ "z.ml" ] "let z = 1\n";
      touch [ "a.ml" ] "let a = 1\n";
      touch [ "sub"; "b.ml" ] "let b = 1\n";
      touch [ "_build"; "x.ml" ] "let x = 1\n";
      touch [ "_opam"; "y.ml" ] "let y = 1\n";
      touch [ ".git"; "h.ml" ] "let h = 1\n";
      touch [ "notes.txt" ] "not ocaml\n";
      let expected =
        [ Filename.concat dir "a.ml";
          Filename.concat (Filename.concat dir "sub") "b.ml";
          Filename.concat dir "z.ml" ]
      in
      Alcotest.(check (list string)) "sorted, skips _build/_opam/dot-dirs" expected
        (Engine.ml_files_under dir);
      Alcotest.(check (list string)) "stable across runs" expected
        (Engine.ml_files_under dir);
      Alcotest.(check (list string)) "a lone .ml path yields itself"
        [ Filename.concat dir "a.ml" ]
        (Engine.ml_files_under (Filename.concat dir "a.ml")))

(* ---- JSON report round trip ---- *)

let render_json fs = Format.asprintf "%a" (Report.json ?baseline:None) fs

(* The findings are the one member a report is read back for. *)
let report_findings s =
  Result.bind (Json.of_string s)
    (Json.decode Dream_util.Codec.(record (field (repeat "findings" Finding.json) Fun.id)))

let test_report_round_trip () =
  let findings =
    lint ~path:"lib/fake.ml" "let a = Random.int 1\nlet t = Sys.time ()\nlet x = List.hd l\n"
  in
  Alcotest.(check int) "three findings" 3 (List.length findings);
  match report_findings (render_json findings) with
  | Ok findings' ->
    Alcotest.(check bool) "identical after round trip" true (findings = findings')
  | Error e -> Alcotest.failf "report reparse failed: %s" e

let prop_finding_json_round_trip =
  QCheck.Test.make ~name:"finding JSON round-trips through Obs.Json" ~count:200
    arbitrary_finding (fun f ->
      match Json.decode Finding.json (Json.encode Finding.json f) with
      | Ok f' -> f = f'
      | Error _ -> false)

let prop_report_json_round_trip =
  QCheck.Test.make ~name:"report JSON round-trips through Obs.Json" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 8) arbitrary_finding)
    (fun fs ->
      match report_findings (render_json fs) with
      | Ok fs' -> fs = fs'
      | Error _ -> false)

(* A corrupt copy of a real report: three findings of one source. *)
let fuzz_report =
  Json_fuzz.property ~name:"report corruption" ~read:report_findings ~write:render_json
    (lazy
      [
        render_json
          (lint ~path:"lib/fake.ml" "let a = Random.int 1\nlet t = Sys.time ()\nlet x = List.hd l\n");
      ])

let () =
  Alcotest.run "dream.lint"
    [
      ( "determinism",
        [
          Alcotest.test_case "Random fires" `Quick test_random_fires;
          Alcotest.test_case "Random via alias/open fires" `Quick test_random_module_paths;
          Alcotest.test_case "Rng stays silent" `Quick test_random_silent;
          Alcotest.test_case "clock reads fire" `Quick test_clock_fires;
          Alcotest.test_case "Clock stays silent" `Quick test_clock_silent;
          Alcotest.test_case "Gc reads fire" `Quick test_gc_fires;
          Alcotest.test_case "Gc_stats stays silent" `Quick test_gc_silent;
        ] );
      ( "float-equality",
        [
          Alcotest.test_case "fires on float operands" `Quick test_float_equality_fires;
          Alcotest.test_case "silent on ints/orderings/tests" `Quick
            test_float_equality_silent;
        ] );
      ( "exception-hygiene",
        [
          Alcotest.test_case "catch-all fires" `Quick test_exception_fires;
          Alcotest.test_case "specific handlers silent" `Quick test_exception_silent;
        ] );
      ( "partiality",
        [
          Alcotest.test_case "partial accessors fire" `Quick test_partiality_fires;
          Alcotest.test_case "total code silent" `Quick test_partiality_silent;
        ] );
      ( "stdout-hygiene",
        [
          Alcotest.test_case "implicit stdout fires" `Quick test_stdout_fires;
          Alcotest.test_case "explicit formatter silent" `Quick test_stdout_silent;
        ] );
      ( "mli-coverage",
        [ Alcotest.test_case "missing mli fires, sibling silences" `Quick test_mli_coverage ] );
      ( "suppression",
        [
          Alcotest.test_case "allow silences exactly one" `Quick
            test_suppression_silences_exactly_one;
          Alcotest.test_case "allow on a binding" `Quick test_suppression_on_binding;
          Alcotest.test_case "file-level allow" `Quick test_file_level_allow;
          Alcotest.test_case "allow is per rule" `Quick test_suppression_is_per_rule;
          Alcotest.test_case "unused allow is a finding" `Quick test_unused_suppression;
          Alcotest.test_case "unknown rule in allow" `Quick test_unknown_rule_in_allow;
          Alcotest.test_case "malformed payload" `Quick test_malformed_allow_payload;
          Alcotest.test_case "unused check respects --rules" `Quick
            test_unused_check_respects_rule_subset;
        ] );
      ( "engine",
        [
          Alcotest.test_case "parse error is a finding" `Quick test_parse_error;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
      ( "hot-path-alloc",
        [
          Alcotest.test_case "allocation classes fire" `Quick test_hot_alloc_classes_fire;
          Alcotest.test_case "non-allocating hot code silent" `Quick test_hot_alloc_silent;
          Alcotest.test_case "cross-module witness chain" `Quick
            test_hot_alloc_cross_module_chain;
          Alcotest.test_case "a toplevel value is not a call" `Quick
            test_hot_toplevel_value_is_not_a_call;
          Alcotest.test_case "a toplevel closure is a call" `Quick
            test_hot_toplevel_closure_is_a_call;
          Alcotest.test_case "partial application" `Quick test_hot_alloc_partial_application;
          Alcotest.test_case "alloc.allow suppresses" `Quick test_alloc_allow_suppresses;
          Alcotest.test_case "unused alloc.allow is a finding" `Quick test_alloc_allow_unused;
          Alcotest.test_case "malformed alloc.allow" `Quick test_alloc_allow_malformed;
          Alcotest.test_case "local binding shadows a top-level one" `Quick
            test_hot_local_binding_shadows;
          Alcotest.test_case "let module alias resolves" `Quick test_hot_let_module_alias;
          Alcotest.test_case "lint.allow of hot-path-alloc refused" `Quick
            test_lint_allow_of_hot_refused;
          Alcotest.test_case "floating alloc.allow refused" `Quick
            test_floating_alloc_allow_refused;
          Alcotest.test_case "alloc.allow outside hot-path-alloc" `Quick
            test_alloc_allow_ignored_by_other_rules;
        ] );
      ( "domain-safety",
        [
          Alcotest.test_case "toplevel mutable state fires" `Quick test_domain_safety_fires;
          Alcotest.test_case "immutable/local/out-of-scope silent" `Quick
            test_domain_safety_silent;
          Alcotest.test_case "lint.allow suppresses" `Quick test_domain_safety_suppression;
        ] );
      ( "test-only-export",
        [
          Alcotest.test_case "every program use counts" `Quick test_test_only_export_uses;
          Alcotest.test_case "test-only and unused exports fire" `Quick
            test_test_only_export_fires;
          Alcotest.test_case "submodule vals" `Quick test_test_only_export_submodule;
          Alcotest.test_case "binding operators" `Quick test_test_only_export_binding_operator;
          Alcotest.test_case "oracle-hook allow" `Quick test_test_only_export_allow;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "of_findings counts per key" `Quick test_baseline_of_findings;
          Alcotest.test_case "diff splits fresh/improved" `Quick test_baseline_diff;
          Alcotest.test_case "ratchet refuses growth" `Quick
            test_baseline_ratchet_refuses_growth;
          Alcotest.test_case "update keeps reasons" `Quick test_baseline_update_keeps_reasons;
          Alcotest.test_case "reasons round-trip" `Quick test_baseline_reason_round_trip;
          QCheck_alcotest.to_alcotest prop_baseline_json_round_trip;
          Alcotest.test_case "committed baseline keeps its bytes" `Quick
            test_committed_baseline_round_trip;
          fuzz_baseline;
          Alcotest.test_case "debt snapshot" `Quick test_debt_snapshot;
        ] );
      ( "determinism-of-output",
        [
          Alcotest.test_case "lint_sources is order-insensitive and stable" `Quick
            test_lint_sources_deterministic;
        ] );
      ( "tree-walk",
        [
          Alcotest.test_case "skips _build/_opam/dot-dirs, sorted" `Quick
            test_ml_files_under_skips_and_sorts;
        ] );
      ( "report",
        [
          Alcotest.test_case "JSON round trip" `Quick test_report_round_trip;
          QCheck_alcotest.to_alcotest prop_finding_json_round_trip;
          QCheck_alcotest.to_alcotest prop_report_json_round_trip;
          fuzz_report;
        ] );
    ]
