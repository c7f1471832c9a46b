package repro.harness

/** Experiment-size knobs, overridable via system properties or environment
  * (`REPRO_<NAME>`). Defaults are sized so the full bench suite reproduces
  * the paper's table *shapes* on a laptop-class machine in tens of minutes.
  * MO-WS always uses the paper's 11 weight pairs (`Baselines.wsAndSoFw`).
  */
object Calibration {

  private def lookup(name: String): Option[String] =
    sys.props.get(s"repro.$name").orElse(sys.env.get(s"REPRO_${name.toUpperCase}"))

  def int(name: String, default: Int): Int = lookup(name).map(_.toInt).getOrElse(default)

  /** Simulated runs used to train models, per benchmark. */
  def trainRuns(bench: String): Int =
    int(s"trainruns_$bench", if (bench == "tpch") 4000 else 2600)

  /** Adam epochs per model. */
  def epochs: Int = int("epochs", 40)

  /** MO-WS / SO-FW sample count (query-level LHS draws). TPC-DS plans are
    * several times larger per evaluation, so the sample budget is smaller
    * to keep the full 102-query sweep tractable.
    */
  def wsSamples(bench: String): Int =
    int(s"ws_samples_$bench", if (bench == "tpch") 20000 else 8000)

  /** Cap on queries per benchmark (0 = all); for quick smoke runs only. */
  def queryCap: Int = int("query_cap", 0)

  /** The latency/cost preference pairs of Table 5. */
  val table5Prefs: Vector[(Double, Double)] =
    Vector((0.0, 1.0), (0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (1.0, 0.0))

  /** The strong speed preference of Table 4. */
  val speedPref: (Double, Double) = (0.9, 0.1)
}
