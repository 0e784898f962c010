(* Table-driven coverage of the CLI surface: exec the real executables,
   check exit codes and the structure of --json output, so flag
   regressions are caught without running the full examples. *)

module Json = Sempe_obs.Json

(* Resolve the executables relative to the test binary, so the table
   works under both `dune runtest` and `dune exec` from any directory. *)
let build_dir = Filename.dirname (Filename.dirname Sys.executable_name)
let sim_exe = Filename.concat build_dir "bin/sempe_sim.exe"
let bench_exe = Filename.concat build_dir "bench/main.exe"

(* [run_full exe args] execs and returns (exit code, stdout, stderr). *)
let run_full exe args =
  let out = Filename.temp_file "sempe-cli" ".out" in
  let err = Filename.temp_file "sempe-cli" ".err" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove out;
      Sys.remove err)
    (fun () ->
      let cmd =
        String.concat " "
          (List.map Filename.quote (exe :: args))
        ^ " > " ^ Filename.quote out ^ " 2> " ^ Filename.quote err
      in
      let code = Sys.command cmd in
      let read file = In_channel.with_open_text file In_channel.input_all in
      (code, read out, read err))

(* [run exe args] execs and returns (exit code, stdout). *)
let run exe args =
  let code, stdout, _ = run_full exe args in
  (code, stdout)

type expect =
  | Non_empty  (** human-readable output: anything on stdout *)
  | Json_with of string list  (** a JSON document carrying these members *)
  | Stderr_prefix of string  (** a diagnostic on stderr starting so *)
  | Ignore_output

let sim_table =
  [
    ("config prints the machine model", [ "config" ], 0, Non_empty);
    ( "microbench --json",
      [ "microbench"; "-w"; "2"; "-i"; "2"; "--json" ],
      0,
      Json_with [ "workload"; "kernel"; "checksum"; "report" ] );
    ( "microbench sampled --json",
      [ "microbench"; "-w"; "2"; "-i"; "2"; "--sample"; "--json" ],
      0,
      Json_with [ "workload"; "sampling" ] );
    ( "djpeg --json",
      [ "djpeg"; "-b"; "2"; "--json" ],
      0,
      Json_with [ "workload"; "format"; "checksum"; "report" ] );
    ( "sample --compare-full --json",
      [ "sample"; "fibonacci"; "--iters"; "20"; "--coverage"; "0.25"; "-j";
        "1"; "--compare-full"; "--json" ],
      0,
      Json_with [ "in_bound" ] );
    ( "fuzz --json",
      [ "fuzz"; "--seed"; "7"; "--count"; "8"; "--no-corpus"; "--json" ],
      0,
      Json_with [ "executed"; "generated"; "mutants"; "features"; "failures" ]
    );
    ( "fuzz rejects unknown oracles",
      [ "fuzz"; "--count"; "1"; "--no-corpus"; "--oracle"; "bogus" ],
      124,
      Ignore_output );
    ( "fuzz rejects unknown faults",
      [ "fuzz"; "--count"; "1"; "--no-corpus"; "--fault"; "bogus" ],
      124,
      Ignore_output );
    (* out-of-range workload parameters are usage errors, rejected by the
       same check the daemon's request decoder applies *)
    ( "microbench rejects a leaf outside 1..W+1",
      [ "microbench"; "--leaf"; "9" ],
      124,
      Ignore_output );
    ("rsa rejects a key wider than 16 bits", [ "rsa"; "--key"; "0x10000" ], 124,
     Ignore_output);
    ("djpeg rejects an unknown format", [ "djpeg"; "-f"; "bogus" ], 124,
     Ignore_output);
    ("unknown subcommand fails", [ "frobnicate" ], 124, Ignore_output);
    ("bad flag value fails", [ "fuzz"; "--count"; "lots" ], 124, Ignore_output);
    ( "leakage rejects unknown channels",
      [ "leakage"; "--attribute"; "--channel"; "bogus" ],
      124,
      Ignore_output );
    ( "leakage --channel requires --attribute",
      [ "leakage"; "--channel"; "timing" ],
      124,
      Ignore_output );
    ("report rejects an unknown experiment", [ "report"; "bogus" ], 124,
     Ignore_output);
    (* table1 and ablation have no CSV view; --csv is rejected before any
       measurement instead of silently printing the tables *)
    ( "report table1 rejects --csv",
      [ "report"; "table1"; "--csv" ],
      124,
      Stderr_prefix "report table1 has no --csv output" );
    ( "report ablation rejects --csv",
      [ "report"; "ablation"; "--csv" ],
      124,
      Stderr_prefix "report ablation has no --csv output" );
    (* The serving surface follows the same exit-code convention: bad
       addresses, unknown ops and unknown flags all exit 124 before any
       connection is attempted. *)
    ( "serve rejects a bad address",
      [ "serve"; "--listen"; "tcp:missing-port" ],
      124,
      Ignore_output );
    ( "serve rejects an unknown flag",
      [ "serve"; "--frobnicate" ],
      124,
      Ignore_output );
    ( "client rejects an unknown op",
      [ "client"; "frobnicate" ],
      124,
      Ignore_output );
    ( "client rejects a bad address",
      [ "client"; "ping"; "-c"; "tcp:missing-port" ],
      124,
      Ignore_output );
    (* a host that does not resolve is an ordinary connection failure *)
    ( "client reports an unresolvable host",
      [ "client"; "ping"; "-c"; "tcp:no-such-host.invalid:1" ],
      1,
      Stderr_prefix "cannot connect to tcp:no-such-host.invalid:1: " );
    ( "loadgen rejects an unknown mix element",
      [ "loadgen"; "--mix"; "bogus" ],
      124,
      Ignore_output );
    ( "loadgen rejects a bad flag value",
      [ "loadgen"; "--clients"; "many" ],
      124,
      Ignore_output );
  ]

let check_expect name expect ~stdout ~stderr =
  match expect with
  | Ignore_output -> ()
  | Stderr_prefix prefix ->
    Alcotest.(check bool)
      (Printf.sprintf "%s: stderr %S starts with %S" name stderr prefix)
      true
      (String.starts_with ~prefix stderr)
  | Non_empty ->
    Alcotest.(check bool) (name ^ ": stdout non-empty") true (stdout <> "")
  | Json_with members -> (
    match Json.of_string (String.trim stdout) with
    | exception Json.Parse_error { pos; message } ->
      Alcotest.failf "%s: stdout is not JSON (at %d: %s)" name pos message
    | doc ->
      List.iter
        (fun m ->
          match Json.member m doc with
          | Some _ -> ()
          | None -> Alcotest.failf "%s: JSON lacks member %S" name m)
        members)

let sim_case (name, args, expected_code, expect) =
  Alcotest.test_case name `Quick (fun () ->
      let code, stdout, stderr = run_full sim_exe args in
      Alcotest.(check int) (name ^ ": exit code") expected_code code;
      check_expect name expect ~stdout ~stderr)

(* ---- the bench perf gate, against handcrafted record files ---- *)

let perf_record ?(instructions = 200_000) ?(cycles = 1000) workload mode rate =
  Json.Obj
    [
      ("workload", Json.Str workload);
      ("mode", Json.Str mode);
      ("instructions", Json.Int instructions);
      ("cycles", Json.Int cycles);
      ("wall_s", Json.Float 0.01);
      ("minstr_per_s", Json.Float rate);
      ("speedup", Json.Float 1.0);
    ]

let write_records records =
  let file = Filename.temp_file "sempe-gate" ".json" in
  Out_channel.with_open_text file (fun oc ->
      output_string oc (Json.to_string (Json.List records)));
  file

let gate_case name ~baseline ~current ~args ~expected_code =
  Alcotest.test_case name `Quick (fun () ->
      let bfile = write_records baseline in
      let cfile = write_records current in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove bfile;
          Sys.remove cfile)
        (fun () ->
          let code, _ =
            run bench_exe
              ([ "gate"; "--baseline"; bfile; "--current"; cfile ] @ args)
          in
          Alcotest.(check int) (name ^ ": exit code") expected_code code))

let base_records =
  [ perf_record "fib" "full" 10.0; perf_record "fib" "sampled" 20.0 ]

let small_records =
  [ perf_record ~instructions:1000 "fib" "full" 10.0;
    perf_record "fib" "sampled" 20.0 ]

let gate_table =
  [
    gate_case "gate passes on identical records" ~baseline:base_records
      ~current:base_records ~args:[] ~expected_code:0;
    gate_case "gate fails when tolerance < slowdown" ~baseline:base_records
      ~current:[ perf_record "fib" "full" 5.0; perf_record "fib" "sampled" 20.0 ]
      ~args:[ "--tolerance"; "30" ] ~expected_code:1;
    gate_case "gate tolerates a slowdown within tolerance"
      ~baseline:base_records
      ~current:[ perf_record "fib" "full" 5.0; perf_record "fib" "sampled" 20.0 ]
      ~args:[ "--tolerance"; "60" ] ~expected_code:0;
    gate_case "gate fails on a missing record" ~baseline:base_records
      ~current:[ perf_record "fib" "full" 10.0 ]
      ~args:[] ~expected_code:1;
    gate_case "gate ignores rate improvements" ~baseline:base_records
      ~current:
        [ perf_record "fib" "full" 100.0; perf_record "fib" "sampled" 200.0 ]
      ~args:[ "--tolerance"; "0" ] ~expected_code:0;
    (* a sampled record slower than its full sibling fails regardless of
       the baseline or tolerance: sampling that costs wall clock is a
       bug, the estimator should have fallen back to the exact path *)
    gate_case "gate fails a sampled record slower than full"
      ~baseline:base_records
      ~current:
        [ perf_record "fib" "full" 100.0; perf_record "fib" "sampled" 99.0 ]
      ~args:[ "--tolerance"; "1000" ] ~expected_code:1;
    (* measured-work floor: a current record over too few instructions
       fails the gate even when its rate looks fine (the baseline has the
       same small record, so only the floor can fail it) *)
    gate_case "gate fails below the min-work floor" ~baseline:small_records
      ~current:small_records ~args:[] ~expected_code:1;
    gate_case "gate min-work floor is configurable" ~baseline:small_records
      ~current:small_records ~args:[ "--min-work"; "500" ] ~expected_code:0;
    (* instructions and cycles are deterministic companions of the rate:
       any difference from the baseline fails, however fast the run *)
    gate_case "gate fails on a changed instruction count"
      ~baseline:base_records
      ~current:
        [ perf_record ~instructions:200_001 "fib" "full" 10.0;
          perf_record "fib" "sampled" 20.0 ]
      ~args:[ "--tolerance"; "1000" ] ~expected_code:1;
    gate_case "gate fails on a changed cycle count" ~baseline:base_records
      ~current:
        [ perf_record "fib" "full" 10.0;
          perf_record ~cycles:999 "fib" "sampled" 20.0 ]
      ~args:[ "--tolerance"; "1000" ] ~expected_code:1;
  ]

(* bench follows the same convention: a malformed -j is a usage error *)
let bench_bad_jobs =
  Alcotest.test_case "bench quick rejects a malformed -j" `Quick (fun () ->
      let code, _ = run bench_exe [ "quick"; "-j"; "x" ] in
      Alcotest.(check int) "exit code" 124 code)

let gate_malformed =
  Alcotest.test_case "gate rejects malformed baselines" `Quick (fun () ->
      let bfile = Filename.temp_file "sempe-gate" ".json" in
      Out_channel.with_open_text bfile (fun oc ->
          output_string oc "{\"not\":\"a list\"}");
      Fun.protect
        ~finally:(fun () -> Sys.remove bfile)
        (fun () ->
          let code, _ = run bench_exe [ "gate"; "--baseline"; bfile ] in
          Alcotest.(check int) "exit code" 2 code))

(* ---- end-to-end Perfetto sink contract: `trace` writes a complete,
   parseable Chrome trace-event document (footer written on close) ---- *)

let trace_perfetto =
  Alcotest.test_case "trace writes a parseable Perfetto document" `Quick
    (fun () ->
      let out = Filename.temp_file "sempe-trace" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove out)
        (fun () ->
          let code, _ =
            run sim_exe
              [ "trace"; "fibonacci"; "-w"; "2"; "-i"; "1"; "-o"; out ]
          in
          Alcotest.(check int) "trace exit code" 0 code;
          let text = In_channel.with_open_text out In_channel.input_all in
          match Json.of_string (String.trim text) with
          | exception Json.Parse_error { pos; message } ->
            Alcotest.failf "trace output is not JSON (at %d: %s)" pos message
          | doc -> (
            Alcotest.(check bool) "displayTimeUnit present" true
              (Json.member "displayTimeUnit" doc <> None);
            match Json.member "traceEvents" doc with
            | Some (Json.List (_ :: _)) -> ()
            | Some _ -> Alcotest.fail "traceEvents is not a non-empty list"
            | None -> Alcotest.fail "traceEvents member missing")))

(* ---- `leakage --attribute --json`: the paper's claim as JSON — the
   SeMPE scheme reports zero divergent events on every channel ---- *)

let leakage_attribute_json =
  Alcotest.test_case "leakage --attribute --json, sempe clean" `Quick
    (fun () ->
      let code, stdout =
        run sim_exe [ "leakage"; "--attribute"; "--json"; "-j"; "2" ]
      in
      Alcotest.(check int) "exit code" 0 code;
      match Json.of_string (String.trim stdout) with
      | exception Json.Parse_error { pos; message } ->
        Alcotest.failf "not JSON (at %d: %s)" pos message
      | Json.List entries ->
        Alcotest.(check bool) "one entry per scheme" true
          (List.length entries >= 2);
        let find_scheme name =
          List.find_opt
            (fun e -> Json.member "scheme" e = Some (Json.Str name))
            entries
        in
        let clean_of e =
          match Json.member "attribution" e with
          | Some attr -> (
            match (Json.member "clean" attr, Json.member "total_divergent" attr) with
            | Some (Json.Bool c), Some (Json.Int n) -> (c, n)
            | _ -> Alcotest.fail "attribution lacks clean/total_divergent")
          | None -> Alcotest.fail "entry lacks attribution"
        in
        (match find_scheme "sempe" with
         | None -> Alcotest.fail "no sempe entry"
         | Some e ->
           let clean, total = clean_of e in
           Alcotest.(check bool) "sempe clean" true clean;
           Alcotest.(check int) "sempe zero divergent events" 0 total);
        (match find_scheme "baseline" with
         | None -> Alcotest.fail "no baseline entry"
         | Some e ->
           let clean, total = clean_of e in
           Alcotest.(check bool) "baseline attributed" true
             ((not clean) && total > 0))
      | _ -> Alcotest.fail "expected a JSON list of scheme entries")

(* ---- goldens: the exact stdout of the paper workloads' subcommands,
   text and --json, pinned byte for byte. Each golden lives in
   test/golden/<name>; regenerate one with
     dune exec bin/sempe_sim.exe -- ARGS > test/golden/<name>
   (then re-mask the host-time fields of the sample goldens by hand). ---- *)

let golden_dir = Filename.concat (Filename.dirname Sys.executable_name) "golden"

(* Replace the text between the first [before] and the next [after] by
   "*": host wall times are the only nondeterministic bytes. *)
let mask ~before ~after s =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length s then None
      else if String.sub s i n = sub then Some i
      else go (i + 1)
    in
    go from
  in
  match find before 0 with
  | None -> s
  | Some i -> (
    let start = i + String.length before in
    match find after start with
    | None -> s
    | Some stop ->
      String.sub s 0 start ^ "*" ^ String.sub s stop (String.length s - stop))

let golden_table =
  let both name args =
    [ (name ^ ".txt", args); (name ^ ".json", args @ [ "--json" ]) ]
  in
  [ ("config.txt", [ "config" ]) ]
  @ both "microbench" [ "microbench" ]
  @ both "microbench-sample" [ "microbench"; "--sample" ]
  @ both "microbench-cte" [ "microbench"; "-s"; "cte" ]
  @ both "microbench-ones" [ "microbench"; "-k"; "ones"; "-w"; "2"; "--leaf"; "3" ]
  @ both "djpeg" [ "djpeg" ]
  @ both "djpeg-gif" [ "djpeg"; "-f"; "GIF"; "-b"; "2" ]
  @ both "djpeg-bmp-sample" [ "djpeg"; "-f"; "BMP"; "--sample" ]
  @ both "rsa" [ "rsa" ]
  @ both "rsa-sample" [ "rsa"; "--sample" ]
  @ both "rsa-baseline" [ "rsa"; "-s"; "baseline" ]
  @ both "profile-rsa" [ "profile"; "rsa" ]
  @ both "profile-fibonacci" [ "profile"; "fibonacci" ]
  @ both "profile-djpeg" [ "profile"; "djpeg" ]
  @ both "leakage" [ "leakage"; "-j"; "1" ]
  @ [ ("disasm-rsa.txt", [ "disasm"; "rsa" ]) ]
  @ both "sample-fibonacci" [ "sample"; "fibonacci" ]
  @ [ ("report-ablation.json", [ "report"; "ablation"; "--json"; "-j"; "2" ]) ]

let read_golden file =
  In_channel.with_open_bin (Filename.concat golden_dir file)
    In_channel.input_all

let golden_case (file, args) =
  Alcotest.test_case ("golden " ^ file) `Quick (fun () ->
      let code, stdout = run sim_exe args in
      Alcotest.(check int) (file ^ ": exit code") 0 code;
      let stdout =
        stdout
        |> mask ~before:"instrs (" ~after:"s wall)"
        |> mask ~before:"\"sampled_s\":" ~after:","
      in
      Alcotest.(check string) (file ^ ": stdout") (read_golden file) stdout)

(* [asm-run] on a small hand-written program: a loop whose every step
   takes a secure branch. The temporary path is printed in both views,
   so it is replaced by "FILE.s" before the comparison. *)
let asm_source =
  "# eight steps, each adding 3 or 5 through a secure branch\n\
   .data 2\n\
   entry:\n\
   \tli r10, 8\n\
   \tli r11, 0\n\
   \tli r13, 4\n\
   loop:\n\
   \tslt r12, r10, r13\n\
   \tsbne r12, r0, small\n\
   \taddi r11, r11, 3\n\
   \tjmp join\n\
   small:\n\
   \taddi r11, r11, 5\n\
   join:\n\
   \teosjmp\n\
   \tst r11, 0(gp)\n\
   \taddi r10, r10, -1\n\
   \tbne r10, r0, loop\n\
   \tld rv, 0(gp)\n\
   \thalt\n"

let replace_all ~sub ~by s =
  let n = String.length sub in
  let buf = Buffer.create (String.length s) in
  let rec go i =
    if i > String.length s - n then
      Buffer.add_string buf (String.sub s i (String.length s - i))
    else if String.sub s i n = sub then begin
      Buffer.add_string buf by;
      go (i + n)
    end
    else begin
      Buffer.add_char buf s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents buf

let asm_run_golden (file, flags) =
  Alcotest.test_case ("golden " ^ file) `Quick (fun () ->
      let path = Filename.temp_file "sempe-asm" ".s" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Out_channel.with_open_text path (fun oc ->
              output_string oc asm_source);
          let code, stdout = run sim_exe ([ "asm-run"; path ] @ flags) in
          Alcotest.(check int) (file ^ ": exit code") 0 code;
          Alcotest.(check string) (file ^ ": stdout") (read_golden file)
            (replace_all ~sub:path ~by:"FILE.s" stdout)))

(* The evaluation grids at the sizes the determinism and djpeg tests
   already run, through each grid's JSON view. *)
let grid_golden (file, doc) =
  Alcotest.test_case ("golden " ^ file) `Quick (fun () ->
      Alcotest.(check string) (file ^ ": json") (read_golden file)
        (Json.to_string (doc ()) ^ "\n"))

let grid_goldens =
  let module E = Sempe_experiments in
  let module Djpeg = Sempe_workloads.Djpeg in
  [
    ( "table1-w2.json",
      fun () -> E.Table1.to_json (E.Table1.measure ~width:2 ~iters:1 ()) );
    ( "fig10-w1-2.json",
      fun () -> E.Fig10.to_json (E.Fig10.sweep ~widths:[ 1; 2 ] ~iters:1 ()) );
    ( "djpeg-exp-small.json",
      fun () ->
        E.Djpeg_exp.to_json
          (E.Djpeg_exp.collect
             ~sizes:
               [ { Djpeg.label = "s"; blocks = 4 };
                 { Djpeg.label = "l"; blocks = 8 } ]
             ()) );
  ]

let tests =
  List.map sim_case sim_table
  @ List.map golden_case golden_table
  @ List.map asm_run_golden
      [ ("asm-run.txt", []); ("asm-run.json", [ "--json" ]) ]
  @ List.map grid_golden grid_goldens
  @ gate_table
  @ [ bench_bad_jobs; gate_malformed; trace_perfetto; leakage_attribute_json ]
