type reading = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
}

let zero =
  {
    minor_words = 0.0;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 0;
    major_collections = 0;
    compactions = 0;
  }

let sub a b =
  {
    minor_words = a.minor_words -. b.minor_words;
    promoted_words = a.promoted_words -. b.promoted_words;
    major_words = a.major_words -. b.major_words;
    minor_collections = a.minor_collections - b.minor_collections;
    major_collections = a.major_collections - b.major_collections;
    compactions = a.compactions - b.compactions;
  }

let add a b =
  {
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    major_words = a.major_words +. b.major_words;
    minor_collections = a.minor_collections + b.minor_collections;
    major_collections = a.major_collections + b.major_collections;
    compactions = a.compactions + b.compactions;
  }

type t = { read : unit -> reading }

let read t = t.read ()

(* The one blessed GC read: everything else obtains counters through a
   [t], so substituting [manual] makes a profile deterministic.  The minor
   count comes from [Gc.minor_words], which is exact: [quick_stat]'s only
   advances at a minor collection on OCaml 5. *)
let real =
  {
    read =
      (fun () ->
        let s = Gc.quick_stat () in
        {
          minor_words = Gc.minor_words ();
          promoted_words = s.Gc.promoted_words;
          major_words = s.Gc.major_words;
          minor_collections = s.Gc.minor_collections;
          major_collections = s.Gc.major_collections;
          compactions = s.Gc.compactions;
        });
  }
[@@lint.allow "determinism-gc"]

type manual = { mutable at : reading }

let manual ?(start = zero) () =
  let m = { at = start } in
  ({ read = (fun () -> m.at) }, m)
[@@lint.allow "test fake: test/test_bench.ml"]

let advance m delta = m.at <- add m.at delta [@@lint.allow "test fake: test/test_bench.ml"]
