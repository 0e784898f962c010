(* Packed-array implementations vs the record-based reference models.

   The production cache ([lib/mem/cache.ml]) and TAGE
   ([lib/bpred/tage.ml]) were rewritten onto flat packed int arrays with
   inlined folded-history arithmetic for speed; [Ref_cache] and
   [Ref_tage] preserve the original record-based implementations. These
   properties drive both sides of each pair through identical
   multi-hundred-thousand-operation streams (millions of operations
   across the QCheck cases) and require bit-identical observable
   behavior: per-operation outcomes, per-branch predictions,
   resident-tag listings, statistics counters, and state signatures.

   The chunked attacker-view witness ([lib/security/witness.ml]) is
   checked the same way against [Ref_witness], the flat doubling-array
   witness it replaced: both are tee'd off one probe bus, so they see
   the same events, and must agree on every stream entry.

   The streams are derived from a generated PRNG seed rather than a
   generated operation list: QCheck shrinks the seed (useless) but can
   still vary it widely, and a seed buys a million-op stream without a
   million-cell generated structure. *)

module Cache = Sempe_mem.Cache
module Tage = Sempe_bpred.Tage
module Stats = Sempe_util.Stats

let qtest = QCheck_alcotest.to_alcotest

(* ---- cache vs Ref_cache ---- *)

(* A few shapes from direct-mapped to 8-way; small enough that random
   addresses collide, evict, and exercise LRU ranks. *)
let cache_shapes =
  [
    { Cache.name = "equiv"; size_bytes = 4 * 1024; line_bytes = 64; ways = 4 };
    { Cache.name = "equiv"; size_bytes = 2 * 1024; line_bytes = 32; ways = 1 };
    { Cache.name = "equiv"; size_bytes = 16 * 1024; line_bytes = 64; ways = 8 };
    { Cache.name = "equiv"; size_bytes = 1024; line_bytes = 16; ways = 2 };
  ]

let cache_ops_per_case = 150_000

let check_cache_equal ~ctx cfg cache ref_cache =
  let got = Cache.signature cache and want = Ref_cache.signature ref_cache in
  if got <> want then
    QCheck.Test.fail_reportf "%s: signature %d <> reference %d" ctx got want;
  for s = 0 to Cache.num_sets cache - 1 do
    if Cache.resident_tags cache s <> Ref_cache.resident_tags ref_cache s then
      QCheck.Test.fail_reportf "%s: resident_tags diverge in set %d" ctx s
  done;
  let got = Stats.to_list (Cache.stats cache)
  and want = Stats.to_list (Ref_cache.stats ref_cache) in
  if got <> want then
    QCheck.Test.fail_reportf "%s: stats diverge (%s)" ctx cfg.Cache.name

let cache_equiv_prop seed =
  let rand = Random.State.make [| seed; 0xcac4e |] in
  List.iter
    (fun cfg ->
      let cache = Cache.create cfg and ref_cache = Ref_cache.create cfg in
      (* Addresses drawn from 4x the cache's reach: plenty of hits, plenty
         of conflict evictions. *)
      let addr_range = 4 * cfg.Cache.size_bytes in
      for op = 1 to cache_ops_per_case do
        let addr = Random.State.int rand addr_range in
        (match Random.State.int rand 100 with
        | r when r < 70 ->
          let write = Random.State.bool rand in
          let got = Cache.access cache ~addr ~write
          and want = Ref_cache.access ref_cache ~addr ~write in
          let hit = got = Cache.Hit and ref_hit = want = Ref_cache.Hit in
          if hit <> ref_hit then
            QCheck.Test.fail_reportf "op %d: access %d diverges" op addr
        | r when r < 85 ->
          let got = Cache.prefetch_fill cache ~addr
          and want = Ref_cache.prefetch_fill ref_cache ~addr in
          if got <> want then
            QCheck.Test.fail_reportf "op %d: prefetch_fill %d diverges" op addr
        | r when r < 99 ->
          let got = Cache.probe cache ~addr
          and want = Ref_cache.probe ref_cache ~addr in
          if got <> want then
            QCheck.Test.fail_reportf "op %d: probe %d diverges" op addr
        | _ ->
          Cache.flush cache;
          Ref_cache.flush ref_cache);
        (* Periodic deep check so a divergence is caught near its cause,
           not a hundred thousand ops later. *)
        if op mod 25_000 = 0 then
          check_cache_equal ~ctx:(Printf.sprintf "after op %d" op) cfg cache
            ref_cache
      done;
      check_cache_equal ~ctx:"final" cfg cache ref_cache)
    cache_shapes;
  true

(* ---- TAGE vs Ref_tage ---- *)

let tage_configs =
  [
    Tage.default_config;
    (* Tiny tables force tag aliasing, allocation pressure, and constant
       usefulness decay. *)
    { Tage.num_tables = 4; table_bits = 6; tag_bits = 7; min_history = 2;
      max_history = 32; base_bits = 8 };
  ]

let tage_branches_per_case = 200_000

let tage_equiv_prop seed =
  let rand = Random.State.make [| seed; 0x7a6e |] in
  List.iter
    (fun config ->
      let packed = Tage.create ~config () in
      let reference = Ref_tage.create ~config () in
      (* A pool of branch sites, each with a behavior class: biased
         random, loop-like (taken except every k-th), or
         history-correlated — the mix populates providers at different
         history lengths. *)
      let sites = 48 in
      let pcs = Array.init sites (fun _ -> Random.State.int rand 0x100000) in
      let kinds = Array.init sites (fun _ -> Random.State.int rand 3) in
      let periods = Array.init sites (fun _ -> 2 + Random.State.int rand 7) in
      let visits = Array.make sites 0 in
      let last = ref false in
      for step = 1 to tage_branches_per_case do
        let i = Random.State.int rand sites in
        let pc = pcs.(i) in
        visits.(i) <- visits.(i) + 1;
        let taken =
          match kinds.(i) with
          | 0 -> Random.State.int rand 10 < 7
          | 1 -> visits.(i) mod periods.(i) <> 0
          | _ -> !last = (pc land 1 = 0)
        in
        last := taken;
        let p = packed.Sempe_bpred.Predictor.predict ~pc in
        let r = Ref_tage.predict reference ~pc in
        if p <> r then
          QCheck.Test.fail_reportf "step %d: prediction diverges at pc %#x"
            step pc;
        packed.Sempe_bpred.Predictor.update ~pc ~taken;
        Ref_tage.update reference ~pred:r ~pc ~taken;
        if step mod 20_000 = 0 then begin
          let ps = packed.Sempe_bpred.Predictor.snapshot_signature () in
          let rs = Ref_tage.signature reference in
          if ps <> rs then
            QCheck.Test.fail_reportf "step %d: signature %d <> reference %d"
              step ps rs
        end;
        (* Rare resets keep the initial-state path equivalent too. *)
        if Random.State.int rand 60_000 = 0 then begin
          packed.Sempe_bpred.Predictor.reset ();
          Ref_tage.reset reference
        end
      done;
      let ps = packed.Sempe_bpred.Predictor.snapshot_signature () in
      let rs = Ref_tage.signature reference in
      if ps <> rs then
        QCheck.Test.fail_reportf "final signature %d <> reference %d" ps rs)
    tage_configs;
  true

(* ---- chunked witness vs Ref_witness ---- *)

module Witness = Sempe_security.Witness
module Workload = Sempe_workloads.Workload
module Harness = Sempe_workloads.Harness
module Scheme = Sempe_core.Scheme
module Sink = Sempe_obs.Sink
module Gen = Sempe_fuzz.Gen

let failf fmt = Printf.ksprintf failwith fmt

(* One run with the production and the reference witness on the same
   probe bus. *)
let witness_pair run =
  let w = Witness.create () and r = Ref_witness.create () in
  run
    (Sink.tee
       (Sink.of_probe (Witness.probe w))
       (Sink.of_probe (Ref_witness.probe r)));
  (w, r)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let check_witness ~ctx (w, r) =
  List.iter
    (fun s ->
      let name = Witness.stream_name s in
      let n = Ref_witness.length r s in
      if Witness.length w s <> n then
        failf "%s %s: length %d <> reference %d" ctx name (Witness.length w s)
          n;
      for i = 0 to n - 1 do
        if Witness.entry w s i <> Ref_witness.entry r s i then
          failf "%s %s: entry %d diverges from the reference" ctx name i;
        if Witness.cycle_at w s i <> Ref_witness.cycle_at r s i then
          failf "%s %s: cycle_at %d diverges from the reference" ctx name i
      done;
      List.iter
        (fun i ->
          if not (raises_invalid (fun () -> Witness.entry w s i)) then
            failf "%s %s: entry %d does not raise" ctx name i;
          if not (raises_invalid (fun () -> Witness.cycle_at w s i)) then
            failf "%s %s: cycle_at %d does not raise" ctx name i)
        [ -1; n ])
    Witness.streams

let check_divergences ~ctx pairs =
  List.iteri
    (fun i (wa, ra) ->
      List.iteri
        (fun j (wb, rb) ->
          if i < j then
            List.iter
              (fun s ->
                if
                  Witness.first_divergence wa wb s
                  <> Ref_witness.first_divergence ra rb s
                then
                  failf "%s runs %d/%d %s: first_divergence differs" ctx i j
                    (Witness.stream_name s))
              Witness.streams)
        pairs)
    pairs

(* Two secret variants of each paper workload under SeMPE and the
   baseline. The SeMPE fib W=4 trace holds ~19k events, past three
   8192-word (2048-event) chunks. *)
let witness_workloads =
  [
    ("rsa", [ Workload.Rsa { key = 0x1234 }; Workload.Rsa { key = 0xa5a5 } ]);
    ( "fib W=4",
      List.map
        (fun leaf ->
          Workload.Microbench
            { kernel = "fibonacci"; width = 4; iters = 3; leaf })
        [ 1; 5 ] );
    ( "quicksort",
      List.map
        (fun leaf ->
          Workload.Microbench
            { kernel = "quicksort"; width = 4; iters = 3; leaf })
        [ 1; 5 ] );
    ( "djpeg 8 blocks",
      List.map
        (fun seed -> Workload.Djpeg { format = "PPM"; blocks = 8; seed })
        [ 1; 2 ] );
  ]

let test_witness_workloads () =
  List.iter
    (fun (label, variants) ->
      List.iter
        (fun scheme ->
          let ctx = label ^ " " ^ Scheme.name scheme in
          let pairs =
            List.map
              (fun w ->
                let built = Workload.build scheme w in
                witness_pair (fun sink ->
                    ignore (Workload.run ~sink built w)))
              variants
          in
          List.iter (check_witness ~ctx) pairs;
          check_divergences ~ctx pairs;
          if label = "fib W=4" && scheme = Scheme.Sempe then
            List.iter
              (fun (w, _) ->
                Alcotest.(check bool) (ctx ^ " trace spans 3+ chunks") true
                  (Witness.length w Witness.Trace > 3 * 2048))
              pairs)
        [ Scheme.Sempe; Scheme.Baseline ])
    witness_workloads

let test_witness_empty () =
  check_witness ~ctx:"empty" (Witness.create (), Ref_witness.create ())

let witness_equiv_prop seed =
  let case = Gen.generate seed in
  List.iter
    (fun scheme ->
      let built = Harness.build scheme case.Gen.prog in
      let pairs =
        List.map
          (fun secrets ->
            witness_pair (fun sink ->
                ignore
                  (Harness.run ~mem_words:16384 ~globals:secrets
                     ~arrays:[ (Gen.array_name, case.Gen.fill) ]
                     ~sink built)))
          case.Gen.secrets
      in
      let ctx = Printf.sprintf "seed %d %s" seed (Scheme.name scheme) in
      List.iter (check_witness ~ctx) pairs;
      check_divergences ~ctx pairs)
    [ Scheme.Sempe; Scheme.Baseline ];
  true

let tests =
  [
    Alcotest.test_case "chunked witness equals the reference on the workloads"
      `Quick test_witness_workloads;
    Alcotest.test_case "empty witness rejects every index" `Quick
      test_witness_empty;
    qtest
      (QCheck.Test.make ~name:"chunked witness equals the reference (fuzz)"
         ~count:12 QCheck.small_nat witness_equiv_prop);
    qtest
      (QCheck.Test.make ~name:"packed cache equals record-based reference"
         ~count:4 QCheck.small_nat cache_equiv_prop);
    qtest
      (QCheck.Test.make ~name:"packed TAGE equals record-based reference"
         ~count:4 QCheck.small_nat tage_equiv_prop);
  ]
