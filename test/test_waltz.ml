let () =
  Alcotest.run "waltz"
    [ ("linalg", Test_linalg.suite);
      ("qudit", Test_qudit.suite);
      ("circuit", Test_circuit.suite);
      ("optimizer", Test_optimizer.suite);
      ("qasm", Test_qasm.suite);
      ("resynthesis", Test_resynthesis.suite);
      ("arch", Test_arch.suite);
      ("noise", Test_noise.suite);
      ("sim", Test_sim.suite);
      ("kernel", Test_kernel.suite);
      ("batch", Test_batch.suite);
      ("benchmarks", Test_benchmarks.suite);
      ("compiler", Test_compiler.suite);
      ("core-units", Test_core_units.suite);
      ("robustness", Test_robustness.suite);
      ("integration", Test_integration.suite);
      ("extensions", Test_extensions.suite);
      ("eps", Test_eps.suite);
      ("diagnostics", Test_diagnostics.suite);
      ("executor", Test_executor.suite);
      ("exact", Test_exact.suite);
      ("rb", Test_rb.suite);
      ("control", Test_control.suite);
      ("verify", Test_verify.suite);
      ("verify-fixtures", Test_verify_fixtures.suite);
      ("equivalence", Test_equivalence.suite);
      ("analysis", Test_analysis.suite);
      ("cache", Test_cache.suite);
      ("runtime", Test_runtime.suite);
      ("telemetry", Test_telemetry.suite);
      ("sanitize", Test_sanitize.suite);
      ("obs", Test_obs.suite) ]
