package repro

import java.sql.DriverManager
import org.apache.spark.sql.{DataFrame, Row}
import org.duckdb.DuckDBConnection

/** DuckDB correctness oracle.
  *
  * ``assertEquivalent(sparkDf, sql, tables)`` runs ``sql`` on DuckDB
  * (via JDBC, in-process) over ``tables`` and asserts the sorted rows
  * match ``sparkDf``. This catches wrong results from a rewritten plan
  * or a custom operator — "it ran" is not "it is correct".
  *
  * Rows are sorted on typed column values. Integers compare exactly; any
  * other number compares with a relative tolerance of 1e-9; everything else
  * compares as text.
  *
  * Alias every output column identically on both sides (Spark names
  * ``count(*)`` as ``count(1)``, DuckDB as ``count_star()``). Project
  * to scalar columns — array/map/struct are not comparable here.
  */
object Oracle {

  /** A cell as compared: null, an exact integer, an approximate number, or text. */
  private def cell(v: Any): Any = v match {
    case null => null
    case x @ (_: Byte | _: Short | _: Int | _: Long | _: java.math.BigInteger) => BigInt(x.toString)
    case x: Number => x.doubleValue // Float, Double, BigDecimal
    case x => x.toString
  }

  /** Nulls first; a column holds one kind of cell on each side. */
  private val cellOrdering: Ordering[Any] = (a, b) => (a, b) match {
    case (null, null)           => 0
    case (null, _)              => -1
    case (_, null)              => 1
    case (x: BigInt, y: BigInt) => x.compare(y)
    case (x: Number, y: Number) => java.lang.Double.compare(x.doubleValue, y.doubleValue)
    case (x, y)                 => x.toString.compareTo(y.toString)
  }

  private def sameCell(a: Any, b: Any): Boolean = (a, b) match {
    case (_: BigInt, _: BigInt) => a == b
    case (x: Number, y: Number) =>
      val (u, v) = (x.doubleValue, y.doubleValue)
      u == v || (u.isNaN && v.isNaN) ||
        math.abs(u - v) <= 1e-9 * math.max(1.0, math.max(math.abs(u), math.abs(v)))
    case _ => a == b
  }

  private def canon(rows: Seq[Row], cols: Seq[String]): Seq[Seq[Any]] = {
    val idx = cols.sorted.map(cols.indexOf)
    rows.map(r => idx.map(i => cell(r.get(i)))).sorted(Ordering.Implicits.seqOrdering[Seq, Any](cellOrdering))
  }

  /** Map a Spark column type to the DuckDB DDL type, so typed predicates
    * (dates, numerics) bind identically on both engines. Values are still
    * appended as strings; DuckDB casts them into the declared column type.
    */
  private def duckType(dt: org.apache.spark.sql.types.DataType): String = {
    import org.apache.spark.sql.types._
    dt match {
      case LongType                       => "BIGINT"
      case IntegerType | ShortType        => "INTEGER"
      case DoubleType | FloatType         => "DOUBLE"
      case DateType                       => "DATE"
      case TimestampType                  => "TIMESTAMP"
      case BooleanType                    => "BOOLEAN"
      case d: DecimalType                 => s"DECIMAL(${d.precision},${d.scale})"
      case _                              => "VARCHAR"
    }
  }

  def assertEquivalent(sparkDf: DataFrame, sql: String, tables: (String, DataFrame)*): Unit = {
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:")
    try {
      for ((name, df) <- tables) {
        val cols = df.columns
        val types = df.schema.fields.map(f => duckType(f.dataType))
        conn.createStatement.execute(
          s"CREATE TABLE $name (${cols.zip(types).map { case (c, t) => s"$c $t" }.mkString(", ")})"
        )
        // Collect once; this is an oracle, not a bench — keep tables small.
        val app = conn.unwrap(classOf[DuckDBConnection]).createAppender(DuckDBConnection.DEFAULT_SCHEMA, name)
        try df.collect().foreach { r =>
          app.beginRow()
          cols.indices.foreach(i => app.append(Option(r.get(i)).map(_.toString).orNull))
          app.endRow()
        } finally app.close()
      }
      val rs   = conn.createStatement.executeQuery(sql)
      val meta = rs.getMetaData
      val dCols = (1 to meta.getColumnCount).map(meta.getColumnLabel)
      val dRows = Iterator
        .continually(rs)
        .takeWhile(_.next())
        .map(r => Row.fromSeq((1 to dCols.size).map(r.getObject)))
        .toSeq
      val sCols = sparkDf.columns.toSeq
      require(
        dCols.map(_.toLowerCase).toSet == sCols.map(_.toLowerCase).toSet,
        s"column mismatch: spark=${sCols.sorted} duckdb=${dCols.sorted} — alias every output column"
      )
      val got = canon(sparkDf.collect().toSeq, sCols)
      val exp = canon(dRows, dCols)
      val differing = got.zip(exp).filterNot { case (a, b) => a.corresponds(b)(sameCell) }
      require(got.size == exp.size && differing.isEmpty,
        s"result mismatch (${got.size} vs ${exp.size} rows):\n" +
        s"  first differing (spark, duckdb) rows: ${differing.take(3)}"
      )
    } finally conn.close()
  }
}
