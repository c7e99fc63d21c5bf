function Body(x, y, z, vx, vy, vz, mass) {
  return {x: x, y: y, z: z, vx: vx, vy: vy, vz: vz, mass: mass};
}
var PI = 3.141592653589793;
var SOLAR_MASS = 4 * PI * PI;
var DAYS_PER_YEAR = 365.24;

function Jupiter() {
  return Body(4.84143144246472090, -1.16032004402742839, -0.103622044471123109,
    0.00166007664274403694 * DAYS_PER_YEAR, 0.00769901118419740425 * DAYS_PER_YEAR,
    -0.0000690460016972063023 * DAYS_PER_YEAR, 0.000954791938424326609 * SOLAR_MASS);
}
function Saturn() {
  return Body(8.34336671824457987, 4.12479856412430479, -0.403523417114321381,
    -0.00276742510726862411 * DAYS_PER_YEAR, 0.00499852801234917238 * DAYS_PER_YEAR,
    0.0000230417297573763929 * DAYS_PER_YEAR, 0.000285885980666130812 * SOLAR_MASS);
}
function Uranus() {
  return Body(12.8943695621391310, -15.1111514016986312, -0.223307578892655734,
    0.00296460137564761618 * DAYS_PER_YEAR, 0.00237847173959480950 * DAYS_PER_YEAR,
    -0.0000296589568540237556 * DAYS_PER_YEAR, 0.0000436624404335156298 * SOLAR_MASS);
}
function Neptune() {
  return Body(15.3796971148509165, -25.9193146099879641, 0.179258772950371181,
    0.00268067772490389322 * DAYS_PER_YEAR, 0.00162824170038242295 * DAYS_PER_YEAR,
    -0.0000951592254519715870 * DAYS_PER_YEAR, 0.0000515138902046611451 * SOLAR_MASS);
}
function Sun() { return Body(0, 0, 0, 0, 0, 0, SOLAR_MASS); }

var bodies = [Sun(), Jupiter(), Saturn(), Uranus(), Neptune()];
var size = 5;

function offsetMomentum() {
  var px = 0, py = 0, pz = 0;
  for (var i = 0; i < size; i++) {
    var b = bodies[i];
    px += b.vx * b.mass; py += b.vy * b.mass; pz += b.vz * b.mass;
  }
  var s = bodies[0];
  s.vx = 0 - px / SOLAR_MASS;
  s.vy = 0 - py / SOLAR_MASS;
  s.vz = 0 - pz / SOLAR_MASS;
}
function advance(dt) {
  for (var i = 0; i < size; i++) {
    var bi = bodies[i];
    for (var j = i + 1; j < size; j++) {
      var bj = bodies[j];
      var dx = bi.x - bj.x, dy = bi.y - bj.y, dz = bi.z - bj.z;
      var d2 = dx*dx + dy*dy + dz*dz;
      var mag = dt / (d2 * Math.sqrt(d2));
      bi.vx -= dx * bj.mass * mag; bi.vy -= dy * bj.mass * mag; bi.vz -= dz * bj.mass * mag;
      bj.vx += dx * bi.mass * mag; bj.vy += dy * bi.mass * mag; bj.vz += dz * bi.mass * mag;
    }
  }
  for (var i = 0; i < size; i++) {
    var b = bodies[i];
    b.x += dt * b.vx; b.y += dt * b.vy; b.z += dt * b.vz;
  }
}
function energy() {
  var e = 0;
  for (var i = 0; i < size; i++) {
    var bi = bodies[i];
    e += 0.5 * bi.mass * (bi.vx*bi.vx + bi.vy*bi.vy + bi.vz*bi.vz);
    for (var j = i + 1; j < size; j++) {
      var bj = bodies[j];
      var dx = bi.x - bj.x, dy = bi.y - bj.y, dz = bi.z - bj.z;
      e -= (bi.mass * bj.mass) / Math.sqrt(dx*dx + dy*dy + dz*dz);
    }
  }
  return e;
}
offsetMomentum();
var ret = 0;
for (var n = 3; n <= 24; n *= 2) {
  for (var k = 0; k < n * 400; k++) advance(0.01);
  ret += energy();
}
print(Math.floor(ret * 1e9));
