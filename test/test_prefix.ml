(* Tests for dream.prefix: prefix algebra (including the paper's Figure 5
   trie worked at /28..32 granularity), with qcheck properties for the
   algebraic laws; and the reference binary trie the monitor tests use as
   their oracle. *)

module Prefix = Prefix_ops
module Trie = Reference_trie

let prefix = Alcotest.testable Prefix.pp Prefix.equal

let p s = Prefix.of_string s

(* ---- Prefix ---- *)

let test_make_masks_low_bits () =
  let a = Prefix.make ~bits:0x0A1B_FFFF ~length:16 in
  Alcotest.(check int) "low bits zeroed" 0x0A1B_0000 (Prefix.bits a)

let test_make_invalid () =
  Alcotest.check_raises "length 33" (Invalid_argument "Prefix.make: length out of [0, 32]")
    (fun () -> ignore (Prefix.make ~bits:0 ~length:33));
  Alcotest.check_raises "negative bits" (Invalid_argument "Prefix.make: bits out of [0, 2^32)")
    (fun () -> ignore (Prefix.make ~bits:(-1) ~length:8))

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) "roundtrip" s (Prefix.to_string (p s)))
    [ "0.0.0.0/0"; "10.0.0.0/8"; "10.32.0.0/12"; "255.255.255.255/32"; "192.168.1.0/24" ]

let test_of_string_malformed () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ " rejected") true
        (try
           ignore (Prefix.of_string s);
           false
         with Invalid_argument _ -> true))
    [ "10.0.0.0"; "10.0.0/8"; "256.0.0.0/8"; "10.0.0.0/33"; "a.b.c.d/8"; "" ]

let test_of_string_masks () =
  Alcotest.check prefix "extra bits masked" (p "10.0.0.0/8") (Prefix.of_string "10.255.3.7/8")

let test_children_parent () =
  let parent = p "10.0.0.0/8" in
  match Prefix.children parent with
  | None -> Alcotest.fail "expected children"
  | Some (l, r) ->
    Alcotest.check prefix "left" (p "10.0.0.0/9") l;
    Alcotest.check prefix "right" (p "10.128.0.0/9") r;
    Alcotest.check (Alcotest.option prefix) "left's parent" (Some parent) (Prefix.parent l);
    Alcotest.check (Alcotest.option prefix) "right's parent" (Some parent) (Prefix.parent r)

let test_root_and_exact () =
  Alcotest.(check bool) "root has no parent" true (Prefix.parent Prefix.root = None);
  let exact = Prefix.of_address 0x0A0B0C0D in
  Alcotest.(check bool) "exact has no children" true (Prefix.children exact = None);
  Alcotest.(check bool) "is_exact" true (Prefix.is_exact exact);
  Alcotest.(check int) "size of exact" 1 (Prefix.size exact)

let test_sibling () =
  Alcotest.check (Alcotest.option prefix) "sibling" (Some (p "10.128.0.0/9"))
    (Prefix.sibling (p "10.0.0.0/9"));
  Alcotest.(check bool) "root has no sibling" true (Prefix.sibling Prefix.root = None)

let test_range () =
  let a = p "10.0.0.0/8" in
  Alcotest.(check int) "first" 0x0A000000 (Prefix.first_address a);
  Alcotest.(check int) "last" 0x0AFFFFFF (Prefix.last_address a);
  Alcotest.(check int) "size" (1 lsl 24) (Prefix.size a)

let test_contains () =
  let a = p "10.0.0.0/8" in
  Alcotest.(check bool) "contains inside" true (Prefix.contains a 0x0A123456);
  Alcotest.(check bool) "excludes outside" false (Prefix.contains a 0x0B000000)

let test_cover_ancestor () =
  let a = p "10.0.0.0/8" and b = p "10.32.0.0/12" in
  Alcotest.(check bool) "ancestor" true (Prefix.is_ancestor_of a b);
  Alcotest.(check bool) "not reflexive" false (Prefix.is_ancestor_of a a);
  Alcotest.(check bool) "covers reflexive" true (Prefix.covers a a);
  Alcotest.(check bool) "covers descendant" true (Prefix.covers a b);
  Alcotest.(check bool) "no reverse cover" false (Prefix.covers b a)

let test_common_ancestor () =
  Alcotest.check prefix "common of siblings" (p "10.0.0.0/8")
    (Prefix.common_ancestor (p "10.0.0.0/9") (p "10.128.0.0/9"));
  Alcotest.check prefix "disjoint top bits" Prefix.root
    (Prefix.common_ancestor (p "10.0.0.0/8") (p "192.0.0.0/8"));
  Alcotest.check prefix "ancestor of pair" (p "10.0.0.0/8")
    (Prefix.common_ancestor (p "10.0.0.0/8") (p "10.32.0.0/12"))

let test_ancestor_at () =
  Alcotest.check prefix "ancestor at 8" (p "10.0.0.0/8") (Prefix.ancestor_at (p "10.32.0.0/12") 8);
  Alcotest.check_raises "longer than prefix"
    (Invalid_argument "Prefix.ancestor_at: requested length exceeds prefix length") (fun () ->
      ignore (Prefix.ancestor_at (p "10.0.0.0/8") 12))

let test_nth_descendant () =
  let f = p "10.0.0.0/8" in
  Alcotest.check prefix "0th /10" (p "10.0.0.0/10") (Prefix.nth_descendant f ~length:10 0);
  Alcotest.check prefix "3rd /10" (p "10.192.0.0/10") (Prefix.nth_descendant f ~length:10 3);
  Alcotest.check_raises "out of range" (Invalid_argument "Prefix.nth_descendant: index out of range")
    (fun () -> ignore (Prefix.nth_descendant f ~length:10 4))

let test_compare_order () =
  let sorted =
    List.sort Prefix.compare [ p "10.128.0.0/9"; p "10.0.0.0/8"; p "10.0.0.0/9" ]
  in
  Alcotest.(check (list string)) "ancestors before descendants, address order"
    [ "10.0.0.0/8"; "10.0.0.0/9"; "10.128.0.0/9" ]
    (List.map Prefix.to_string sorted)

(* qcheck generators *)

let gen_prefix =
  QCheck.Gen.(
    int_range 0 32 >>= fun length ->
    map
      (fun bits -> Prefix.make ~bits:(bits land 0xFFFFFFFF) ~length)
      (int_bound 0x3FFFFFFFFFFF))

let arb_prefix = QCheck.make ~print:Prefix.to_string gen_prefix

let prop_parent_covers =
  QCheck.Test.make ~name:"parent covers child" ~count:500 arb_prefix (fun x ->
      match Prefix.parent x with None -> Prefix.length x = 0 | Some pa -> Prefix.covers pa x)

let prop_children_partition =
  QCheck.Test.make ~name:"children partition parent" ~count:500 arb_prefix (fun x ->
      match Prefix.children x with
      | None -> Prefix.is_exact x
      | Some (l, r) ->
        Prefix.size l + Prefix.size r = Prefix.size x
        && Prefix.first_address l = Prefix.first_address x
        && Prefix.last_address r = Prefix.last_address x
        && Prefix.last_address l + 1 = Prefix.first_address r)

let prop_contains_range =
  QCheck.Test.make ~name:"contains = within range" ~count:500
    QCheck.(pair arb_prefix (int_bound 0xFFFFFFFF))
    (fun (x, addr) ->
      Prefix.contains x addr
      = (addr >= Prefix.first_address x && addr <= Prefix.last_address x))

let prop_common_ancestor_covers =
  QCheck.Test.make ~name:"common ancestor covers both" ~count:500
    QCheck.(pair arb_prefix arb_prefix)
    (fun (a, b) ->
      let c = Prefix.common_ancestor a b in
      Prefix.covers c a && Prefix.covers c b)

let prop_covers_bits =
  QCheck.Test.make ~name:"covers_bits = covers on (bits, length)" ~count:500
    QCheck.(triple arb_prefix arb_prefix (int_bound 32))
    (fun (a, b, cut) ->
      (* About half the pairs nest: [b] replaced by an ancestor of [a]. *)
      let b = if cut <= Prefix.length a && cut mod 2 = 0 then Prefix.ancestor_at a cut else b in
      let raw x y =
        Prefix.covers_bits ~abits:(Prefix.bits x) ~alen:(Prefix.length x) ~bbits:(Prefix.bits y)
          ~blen:(Prefix.length y)
      in
      raw a b = Prefix.covers a b && raw b a = Prefix.covers b a)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"to_string/of_string roundtrip" ~count:500 arb_prefix (fun x ->
      Prefix.equal x (Prefix.of_string (Prefix.to_string x)))

(* ---- Trie ---- *)

let root8 = p "10.0.0.0/8"

let test_trie_add_find () =
  let t = Trie.add (Trie.empty root8) (p "10.32.0.0/12") 42 in
  Alcotest.(check (option int)) "found" (Some 42) (Trie.find t (p "10.32.0.0/12"));
  Alcotest.(check (option int)) "absent" None (Trie.find t (p "10.0.0.0/12"));
  Alcotest.(check int) "cardinal" 1 (Trie.cardinal t)

let test_trie_add_replaces () =
  let t = Trie.add (Trie.add (Trie.empty root8) root8 1) root8 2 in
  Alcotest.(check (option int)) "replaced" (Some 2) (Trie.find t root8);
  Alcotest.(check int) "cardinal still 1" 1 (Trie.cardinal t)

let test_trie_outside_root () =
  Alcotest.(check bool) "add outside raises" true
    (try
       ignore (Trie.add (Trie.empty root8) (p "11.0.0.0/9") 1);
       false
     with Invalid_argument _ -> true)

let test_trie_remove () =
  let t = Trie.add (Trie.add (Trie.empty root8) (p "10.32.0.0/12") 1) (p "10.0.0.0/12") 2 in
  let t = Trie.remove t (p "10.32.0.0/12") in
  Alcotest.(check (option int)) "removed" None (Trie.find t (p "10.32.0.0/12"));
  Alcotest.(check (option int)) "other kept" (Some 2) (Trie.find t (p "10.0.0.0/12"));
  Alcotest.(check int) "cardinal" 1 (Trie.cardinal t)

let test_trie_longest_match () =
  let t =
    Trie.add (Trie.add (Trie.empty root8) (p "10.0.0.0/8") 8) (p "10.32.0.0/12") 12
  in
  (match Trie.longest_match t 0x0A200001 with
  | Some (q, v) ->
    Alcotest.check prefix "longest" (p "10.32.0.0/12") q;
    Alcotest.(check int) "value" 12 v
  | None -> Alcotest.fail "expected match");
  (match Trie.longest_match t 0x0AF00001 with
  | Some (q, v) ->
    Alcotest.check prefix "falls back to /8" (p "10.0.0.0/8") q;
    Alcotest.(check int) "value" 8 v
  | None -> Alcotest.fail "expected match");
  Alcotest.(check bool) "outside root" true (Trie.longest_match t 0x0B000000 = None)

let test_trie_bindings_sorted () =
  let t =
    List.fold_left
      (fun t (q, v) -> Trie.add t (p q) v)
      (Trie.empty root8)
      [ ("10.128.0.0/9", 1); ("10.0.0.0/8", 2); ("10.64.0.0/10", 3) ]
  in
  Alcotest.(check (list string)) "prefix order"
    [ "10.0.0.0/8"; "10.64.0.0/10"; "10.128.0.0/9" ]
    (List.map (fun (q, _) -> Prefix.to_string q) (Trie.bindings t))

let test_trie_descendants_subtree () =
  let t =
    List.fold_left
      (fun t q -> Trie.add t (p q) ())
      (Trie.empty root8)
      [ "10.0.0.0/10"; "10.64.0.0/10"; "10.128.0.0/9" ]
  in
  Alcotest.(check int) "descendants of /9" 2 (List.length (Trie.descendants t (p "10.0.0.0/9")));
  let t = Trie.remove_subtree t (p "10.0.0.0/9") in
  Alcotest.(check int) "after remove_subtree" 1 (Trie.cardinal t)

let test_trie_fold_bottom_up () =
  (* Sum of sizes of bound prefixes via post-order traversal. *)
  let t =
    List.fold_left
      (fun t q -> Trie.add t (p q) ())
      (Trie.empty root8)
      [ "10.0.0.0/9"; "10.128.0.0/9" ]
  in
  let result =
    Trie.fold_bottom_up t ~f:(fun q value children ->
        let own = if value <> None then Prefix.size q else 0 in
        own + List.fold_left ( + ) 0 children)
  in
  Alcotest.(check (option int)) "covers the /8" (Some (Prefix.size root8)) result

let test_trie_update () =
  let t = Trie.empty root8 in
  let t = Trie.update t root8 (fun v -> Some (match v with None -> 1 | Some n -> n + 1)) in
  let t = Trie.update t root8 (fun v -> Some (match v with None -> 1 | Some n -> n + 1)) in
  Alcotest.(check (option int)) "updated twice" (Some 2) (Trie.find t root8);
  let t = Trie.update t root8 (fun _ -> None) in
  Alcotest.(check bool) "update to None removes" true (Trie.is_empty t)

let gen_sub_prefix =
  (* Prefixes under 10.0.0.0/8. *)
  QCheck.Gen.(
    int_range 8 32 >>= fun length ->
    map
      (fun bits ->
        Prefix.make ~bits:(0x0A000000 lor (bits land 0x00FFFFFF)) ~length)
      (int_bound 0xFFFFFF))

let arb_sub_prefix_list =
  QCheck.make
    ~print:(fun l -> String.concat "," (List.map Prefix.to_string l))
    QCheck.Gen.(list_size (int_range 0 40) gen_sub_prefix)

let prop_trie_model =
  QCheck.Test.make ~name:"trie bindings match a map model" ~count:200 arb_sub_prefix_list
    (fun prefixes ->
      let trie =
        List.fold_left (fun t q -> Trie.add t q (Prefix.to_string q)) (Trie.empty root8) prefixes
      in
      let model =
        List.fold_left (fun m q -> Prefix.Map.add q (Prefix.to_string q) m) Prefix.Map.empty
          prefixes
      in
      Trie.bindings trie = Prefix.Map.bindings model)

let prop_trie_remove_inverse =
  QCheck.Test.make ~name:"remove undoes add" ~count:200 arb_sub_prefix_list (fun prefixes ->
      let trie = List.fold_left (fun t q -> Trie.add t q ()) (Trie.empty root8) prefixes in
      let emptied = List.fold_left (fun t q -> Trie.remove t q) trie prefixes in
      Trie.is_empty emptied)

let prop_trie_longest_match_model =
  QCheck.Test.make ~name:"longest_match agrees with linear scan" ~count:200
    QCheck.(pair arb_sub_prefix_list (int_range 0x0A000000 0x0AFFFFFF))
    (fun (prefixes, addr) ->
      let trie = List.fold_left (fun t q -> Trie.add t q ()) (Trie.empty root8) prefixes in
      let expected =
        List.fold_left
          (fun best q ->
            if Prefix.contains q addr then begin
              match best with
              | Some b when Prefix.length b >= Prefix.length q -> best
              | Some _ | None -> Some q
            end
            else best)
          None prefixes
      in
      match (Trie.longest_match trie addr, expected) with
      | None, None -> true
      | Some (q, ()), Some e -> Prefix.equal q e
      | Some _, None | None, Some _ -> false)

let () =
  Alcotest.run "dream.prefix"
    [
      ( "prefix",
        [
          Alcotest.test_case "make masks low bits" `Quick test_make_masks_low_bits;
          Alcotest.test_case "make invalid" `Quick test_make_invalid;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "of_string malformed" `Quick test_of_string_malformed;
          Alcotest.test_case "of_string masks" `Quick test_of_string_masks;
          Alcotest.test_case "children and parent" `Quick test_children_parent;
          Alcotest.test_case "root and exact" `Quick test_root_and_exact;
          Alcotest.test_case "sibling" `Quick test_sibling;
          Alcotest.test_case "address range" `Quick test_range;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "covers and ancestors" `Quick test_cover_ancestor;
          Alcotest.test_case "common ancestor" `Quick test_common_ancestor;
          Alcotest.test_case "ancestor_at" `Quick test_ancestor_at;
          Alcotest.test_case "nth descendant" `Quick test_nth_descendant;
          Alcotest.test_case "compare order" `Quick test_compare_order;
          QCheck_alcotest.to_alcotest prop_parent_covers;
          QCheck_alcotest.to_alcotest prop_children_partition;
          QCheck_alcotest.to_alcotest prop_contains_range;
          QCheck_alcotest.to_alcotest prop_common_ancestor_covers;
          QCheck_alcotest.to_alcotest prop_covers_bits;
          QCheck_alcotest.to_alcotest prop_string_roundtrip;
        ] );
      ( "trie",
        [
          Alcotest.test_case "add and find" `Quick test_trie_add_find;
          Alcotest.test_case "add replaces" `Quick test_trie_add_replaces;
          Alcotest.test_case "outside root rejected" `Quick test_trie_outside_root;
          Alcotest.test_case "remove" `Quick test_trie_remove;
          Alcotest.test_case "longest match" `Quick test_trie_longest_match;
          Alcotest.test_case "bindings sorted" `Quick test_trie_bindings_sorted;
          Alcotest.test_case "descendants and subtree removal" `Quick test_trie_descendants_subtree;
          Alcotest.test_case "fold bottom up" `Quick test_trie_fold_bottom_up;
          Alcotest.test_case "update" `Quick test_trie_update;
          QCheck_alcotest.to_alcotest prop_trie_model;
          QCheck_alcotest.to_alcotest prop_trie_remove_inverse;
          QCheck_alcotest.to_alcotest prop_trie_longest_match_model;
        ] );
    ]
