package repro

/** The DuckDB oracle compares results unambiguously: rows are ordered by
  * typed values, and numbers are equal within a relative tolerance.
  */
class OracleSpec extends SparkSpec {

  test("rows whose concatenated text collides still pair up") {
    import spark.implicits._
    // Joined with a U+0001 separator, both rows read "1\u0001\u000123";
    // DuckDB returns them in the other order.
    val df = Seq(("1", "\u000123"), ("1\u0001", "23")).toDF("a", "b")
    Oracle.assertEquivalent(df, "SELECT a, b FROM t ORDER BY a DESC", "t" -> df)
  }

  test("doubles that differ past the sixth decimal but within the tolerance match") {
    import spark.implicits._
    // %.6f would print 2.000001 and 2.000000.
    val df = Seq(2.0000005).toDF("x")
    Oracle.assertEquivalent(df, "SELECT CAST(2.0000004999999 AS DOUBLE) AS x")
  }

  test("small doubles that differ beyond the tolerance do not match") {
    import spark.implicits._
    // %.6f would print 0.000000 for both.
    val df = Seq(1e-7).toDF("x")
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT CAST(4e-7 AS DOUBLE) AS x")
    }
  }
}
