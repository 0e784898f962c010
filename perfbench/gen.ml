(* Seeded request streams. Every workload draws its inputs from here and
   nothing else, so one seed always gives one stream; the program under
   test only ever sees the generated requests.

   Streams are built from rounds: each round holds one request of every
   class the workload mixes, in a seeded order. A run covers many rounds,
   so the cost mix (and with it the medians) barely moves from seed to
   seed, while every request's parameters still come from the seed. *)

module Api = Sempe_serve.Api
module Scheme = Sempe_core.Scheme
module Rng = Sempe_util.Rng
module Json = Sempe_obs.Json

let kernels = [| "fibonacci"; "ones"; "quicksort"; "queens" |]
let formats = [| "PPM"; "GIF"; "BMP" |]
let key req = Json.to_string (Api.request_to_json req)

let simulate scheme workload =
  Api.Simulate { scheme; workload; strict_oob = false }

(* Only requests the CLI accepts: [leaf] stays in 1..width+1. The wire
   decoder accepts any leaf, and an out-of-range one kills the worker on
   [Microbench.secrets_for_leaf]'s assertion (see NOTES.md). *)
let microbench rng ~kernel ~width ~iters =
  Api.Microbench { kernel; width; iters; leaf = Rng.int_in rng 1 (width + 1) }

let rsa rng = Api.Rsa { key = Rng.int rng (1 lsl Sempe_workloads.Rsa.key_bits) }

(* Cycle through [items] in an order reshuffled every pass; the first
   pass keeps the given order, so a stream always opens with its first
   class (set-up replays that prefix). *)
let cycle rng items =
  let queue = Queue.create () and first = ref true in
  fun () ->
    if Queue.is_empty queue then begin
      let a = Array.of_list items in
      if not !first then Rng.shuffle rng a;
      first := false;
      Array.iter (fun c -> Queue.add c queue) a
    end;
    Queue.pop queue

(* A class drawing from [strata] in turn, so each stratum (a kernel and
   width, say) gets its share of a class's requests whatever the seed;
   the cost mix of a run then hardly depends on the seed. *)
let stratified rng strata =
  let next = cycle rng strata in
  fun rng -> next () rng

(* Small microbench requests, one stratum per kernel and width. *)
let microbench_strata rng =
  stratified rng
    (List.concat_map
       (fun kernel ->
         List.map
           (fun width rng ->
             microbench rng ~kernel ~width ~iters:(Rng.int_in rng 2 4))
           [ 1; 2; 3; 4 ])
       (Array.to_list kernels))

let djpeg_strata rng =
  stratified rng
    (List.concat_map
       (fun format ->
         List.map
           (fun blocks rng ->
             Api.Djpeg { format; blocks; seed = Rng.int rng 1_000_000 })
           [ 2; 3; 4; 5 ])
       (Array.to_list formats))

(* A round-robin over [classes]. Requests are kept distinct: a class
   redraws (up to a cap) until it yields an unseen request, so no later
   in-process result cache could turn the stream into repeats. Past the
   cap a repeat is accepted; the microbench classes hold 168 distinct
   requests each. *)
let rounds rng classes =
  let next_class = cycle rng classes in
  let seen = Hashtbl.create 1024 in
  fun () ->
    let cls = next_class () in
    let rec draw tries =
      let r = cls rng in
      let k = key r in
      if Hashtbl.mem seen k && tries < 256 then draw (tries + 1)
      else begin
        Hashtbl.replace seen k ();
        r
      end
    in
    draw 0

(* short-requests: default-sized requests of every kind the CLI serves. *)
let short_requests seed =
  let rng = Rng.create seed in
  let with_scheme scheme strata =
    let draw = strata rng in
    fun rng -> simulate scheme (draw rng)
  in
  let profiled = microbench_strata rng in
  rounds rng
    [
      (fun rng -> simulate Scheme.Sempe (rsa rng));
      (fun rng -> simulate Scheme.Baseline (rsa rng));
      with_scheme Scheme.Baseline microbench_strata;
      with_scheme Scheme.Sempe microbench_strata;
      with_scheme Scheme.Cte microbench_strata;
      with_scheme Scheme.Sempe djpeg_strata;
      with_scheme Scheme.Baseline djpeg_strata;
      (fun rng ->
        let workload = if Rng.bool rng then profiled rng else rsa rng in
        Api.Profile { scheme = Scheme.Sempe; workload; top = 10 });
    ]

(* long-detailed: every request simulates ~1.8M instructions in full
   detail (a microbench Simulate also runs its baseline, so the baseline
   classes get larger [iters]); no run is under 300k instructions. *)
let long_detailed seed =
  let rng = Rng.create seed in
  let mb kernel scheme iters rng =
    let iters = iters + Rng.int rng (max 1 (iters / 20)) in
    simulate scheme (microbench rng ~kernel ~width:4 ~iters)
  in
  (* GIF decodes 64 blocks in about 2.5x the time of the other formats,
     which would put a second cost mode into the latency distribution. *)
  let djpeg scheme =
    stratified rng
      (List.map
         (fun format rng ->
           simulate scheme
             (Api.Djpeg { format; blocks = 64; seed = Rng.int rng 1_000_000 }))
         [ "PPM"; "BMP" ])
  in
  rounds rng
    [
      mb "fibonacci" Scheme.Sempe 240;
      mb "fibonacci" Scheme.Baseline 700;
      mb "quicksort" Scheme.Sempe 20;
      mb "quicksort" Scheme.Baseline 56;
      mb "queens" Scheme.Sempe 55;
      mb "queens" Scheme.Baseline 160;
      djpeg Scheme.Sempe;
      djpeg Scheme.Baseline;
    ]

(* attacker-view: a secret set is one program plus three distinct secrets
   (microbench leaves or rsa keys), run under SeMPE and the baseline. *)
type secret_set = {
  label : string;
  workloads : Api.workload list;  (** one per secret, same program *)
}

let attacker_view seed =
  let rng = Rng.create seed in
  let mb_set kernel width rng =
    let iters = 2 in
    let leaves = Array.init (width + 1) (fun i -> i + 1) in
    Rng.shuffle rng leaves;
    {
      label = Printf.sprintf "%s W=%d iters=%d" kernel width iters;
      workloads =
        List.map
          (fun leaf -> Api.Microbench { kernel; width; iters; leaf })
          (Array.to_list (Array.sub leaves 0 3));
    }
  in
  let rsa_set rng =
    let rec keys acc =
      if List.length acc = 3 then acc
      else
        let k = Rng.int rng (1 lsl Sempe_workloads.Rsa.key_bits) in
        keys (if List.mem k acc then acc else k :: acc)
    in
    { label = "rsa"; workloads = List.map (fun key -> Api.Rsa { key }) (keys []) }
  in
  let mb_sets () =
    stratified rng
      (List.concat_map
         (fun kernel -> List.map (mb_set kernel) [ 2; 3; 4 ])
         (Array.to_list kernels))
  in
  let next = cycle rng [ rsa_set; mb_sets (); mb_sets () ] in
  fun () -> next () rng

(* serve-mix: a universe of [universe] distinct keys, twice the daemon's
   default result-cache capacity, drawn with Zipf popularity. The class
   of a key follows its popularity rank, so every seed puts the same
   kinds of request at the same popularity. One class in eight is a
   [Sample] request; consecutive sample slots share a workload and a
   sampling stride across three coverages, so all three reuse one
   checkpoint plan. *)
let universe = 256
let zipf_s = 0.9
let sample_coverages = [| 0.25; 0.24; 0.26 |]

let sample_request ~scheme rng =
  Api.Sample
    {
      scheme;
      workload =
        microbench rng ~kernel:"fibonacci" ~width:4
          ~iters:(Rng.int_in rng 48 52);
      strict_oob = false;
      params = { interval = 20_000; coverage = 0.25; warmup = 2_000 };
    }

let with_coverage coverage = function
  | Api.Sample s -> Api.Sample { s with params = { s.params with coverage } }
  | r -> r

let serve_universe seed =
  let rng = Rng.create (Rng.mix seed 0) in
  let mb = Array.init 3 (fun _ -> microbench_strata rng) in
  let djpeg = Array.init 2 (fun _ -> djpeg_strata rng) in
  let seen = Hashtbl.create 512 in
  let last_sample = ref None and sample_slot = ref 0 in
  let cls rank rng =
    match rank mod 8 with
    | 0 -> simulate Scheme.Sempe (mb.(0) rng)
    | 1 -> simulate Scheme.Sempe (rsa rng)
    | 2 -> simulate Scheme.Sempe (djpeg.(0) rng)
    | 3 -> simulate Scheme.Baseline (mb.(1) rng)
    | 4 ->
      let slot = !sample_slot mod Array.length sample_coverages in
      incr sample_slot;
      let base =
        match !last_sample with
        | Some r when slot > 0 -> r
        | _ ->
          let scheme =
            if !sample_slot mod 2 = 1 then Scheme.Sempe else Scheme.Baseline
          in
          let r = sample_request ~scheme rng in
          last_sample := Some r;
          r
      in
      with_coverage sample_coverages.(slot) base
    | 5 -> simulate Scheme.Baseline (rsa rng)
    | 6 -> simulate Scheme.Cte (mb.(2) rng)
    | _ -> simulate Scheme.Baseline (djpeg.(1) rng)
  in
  Array.init universe (fun rank ->
      let rec draw () =
        let r = cls rank rng in
        let k = key r in
        if Hashtbl.mem seen k then draw ()
        else begin
          Hashtbl.replace seen k ();
          r
        end
      in
      draw ())

let zipf_cdf =
  let w = Array.init universe (fun r -> 1. /. (float_of_int (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_rank rng =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (universe - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if zipf_cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* Client [c]'s request stream over the universe. *)
let serve_client seed ~universe:keys c =
  let rng = Rng.create (Rng.mix seed (c + 1)) in
  fun () -> keys.(zipf_rank rng)

(* Requests both clients send at once, to exercise coalescing. Their
   scheme appears nowhere in the universe, so each one is a fresh key. *)
let serve_pairs seed =
  let rng = Rng.create (Rng.mix seed 99) in
  let seen = Hashtbl.create 64 in
  fun () ->
    let rec draw () =
      let key = Rng.int rng (1 lsl Sempe_workloads.Rsa.key_bits) in
      if Hashtbl.mem seen key then draw ()
      else begin
        Hashtbl.replace seen key ();
        simulate Scheme.Sempe_on_legacy (Api.Rsa { key })
      end
    in
    draw ()
