var letters = 'abcdefghijklmnopqrstuvwxyz';
var numbers = '0123456789';
function makeName(n) {
  var name = '';
  for (var i = 0; i < 6; i++)
    name += letters.charAt((n * 7 + i * 13) % 26);
  return name;
}
function makeNumber(n) {
  var num = '';
  for (var i = 0; i < 8; i++)
    num += numbers.charAt((n * 3 + i * 11) % 10);
  return num;
}
var checksum = 0;
for (var i = 0; i < 2500; i++) {
  var name = makeName(i);
  var num = makeNumber(i);
  checksum += name.length + num.length + name.charCodeAt(0) + num.charCodeAt(0);
}
print(checksum);
