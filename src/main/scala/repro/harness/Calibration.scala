package repro.harness

/** Experiment sizes. The training size (`trainruns_<bench>`, `epochs`) is
  * overridable via system properties (`repro.<name>`) or environment
  * (`REPRO_<NAME>`). Defaults are sized so the full bench suite reproduces
  * the paper's table *shapes* on a laptop-class machine in tens of minutes.
  * MO-WS always uses the paper's 11 weight pairs (`Baselines.wsAndSoFw`).
  */
object Calibration {

  private def int(name: String, default: Int): Int =
    sys.props.get(s"repro.$name").orElse(sys.env.get(s"REPRO_${name.toUpperCase}"))
      .map(_.toInt).getOrElse(default)

  /** Simulated runs used to train models, per benchmark. */
  def trainRuns(bench: String): Int =
    int(s"trainruns_$bench", if (bench == "tpch") 4000 else 2600)

  /** Adam epochs per model. */
  def epochs: Int = int("epochs", 40)

  /** MO-WS / SO-FW sample count (query-level LHS draws). TPC-DS plans are
    * several times larger per evaluation, so the sample budget is smaller
    * to keep the full 102-query sweep tractable.
    */
  def wsSamples(bench: String): Int = if (bench == "tpch") 20000 else 8000

  /** The latency/cost preference pairs of Table 5. */
  val table5Prefs: Vector[(Double, Double)] =
    Vector((0.0, 1.0), (0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (1.0, 0.0))

  /** The strong speed preference of Table 4. */
  val speedPref: (Double, Double) = (0.9, 0.1)
}
