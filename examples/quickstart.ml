(* Quickstart: write a program with a secret-dependent branch, compile it
   for SeMPE, and watch both paths execute with identical observables.

   Run with: dune exec examples/quickstart.exe *)

open Sempe_lang.Ast
module Harness = Sempe_workloads.Harness
module Scheme = Sempe_core.Scheme
module Run = Sempe_core.Run
module Observable = Sempe_security.Observable

(* A toy access-control check: the secret decides which of two code paths
   computes the response. *)
let program =
  {
    funcs =
      [
        {
          fname = "main";
          params = [];
          locals = [ "resp"; "k" ];
          body =
            [
              assign "resp" (i 0);
              if_ ~secret:true
                (v "is_admin" <>: i 0)
                [
                  (* privileged path: longer computation *)
                  for_ "k" (i 0) (i 50)
                    [ assign "resp" ((v "resp" +: (v "k" *: v "k")) %: i 9973) ];
                ]
                [ assign "resp" (i 7) ];
              ret (v "resp");
            ];
        };
      ];
    globals = [ "is_admin" ];
    arrays = [];
    secrets = [ "is_admin" ];
    main = "main";
  }

let run scheme ~secret =
  let built = Harness.build scheme program in
  let recorder = Observable.recorder () in
  let outcome =
    Harness.run
      ~globals:[ ("is_admin", secret) ]
      ~observe:(Observable.feed recorder) built
  in
  ( Harness.return_value outcome,
    Run.cycles outcome,
    (Observable.view recorder outcome.Run.timing).Observable.pc_digest )

let () =
  print_endline "=== quickstart: one secret branch, two machines ===\n";
  List.iter
    (fun scheme ->
      let r0, c0, d0 = run scheme ~secret:0 in
      let r1, c1, d1 = run scheme ~secret:1 in
      Printf.printf "%-16s secret=0: result=%-5d %6d cycles | secret=1: result=%-5d %6d cycles\n"
        (Scheme.name scheme) r0 c0 r1 c1;
      Printf.printf "%-16s timing %s, pc-trace %s\n\n" ""
        (if c0 = c1 then "IDENTICAL (no leak)" else "DIFFERS  (leaks!)")
        (if d0 = d1 then "IDENTICAL (no leak)" else "DIFFERS  (leaks!)"))
    [ Scheme.Baseline; Scheme.Sempe ];
  print_endline
    "Under SeMPE the sJMP executes the not-taken path first, jumps back at\n\
     the eosJMP, executes the taken path, and merges registers from the\n\
     ArchRS snapshot - both secrets produce the same observable execution."
